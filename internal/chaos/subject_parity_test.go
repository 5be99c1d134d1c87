// Injection-disabled parity over the paper's evaluation subjects: a
// guarded pipeline with no injector must reproduce the unguarded run
// byte for byte — Source and JSONL trace — on P1–P10 (the acceptance
// bar for "guarding does not perturb the reproduction").
package chaos_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

func TestGuardedSubjectsByteIdentical(t *testing.T) {
	ids := []string{"P1", "P3", "P6"}
	if !testing.Short() {
		ids = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			s, err := subjects.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func(g *guard.Guard) (core.Result, []byte) {
				var buf bytes.Buffer
				tw := obs.NewTraceWriter(&buf)
				ro := repair.Options{MaxIterations: 12}
				res, err := core.RunUnitContext(context.Background(), s.MustParse(), core.Options{
					Kernel: s.Kernel,
					Fuzz:   fuzz.Options{MaxExecs: 120, Plateau: 50},
					Repair: ro,
					Obs:    tw,
					Guard:  g,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := tw.Flush(); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			plain, plainTrace := run(nil)
			guarded, guardedTrace := run(guard.New(guard.Options{}))
			if plain.Source != guarded.Source {
				t.Errorf("%s: guarded source diverged", id)
			}
			if !bytes.Equal(plainTrace, guardedTrace) {
				t.Errorf("%s: guarded trace diverged", id)
			}
		})
	}
}
