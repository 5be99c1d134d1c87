package chaos

import (
	"testing"

	"github.com/hetero/heterogen/internal/guard"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := New(Options{Seed: 7, Rate: 0.5})
	b := New(Options{Seed: 7, Rate: 0.5})
	keys := []string{"alpha", "beta", "gamma", "void kernel(int n) { }", ""}
	for _, stage := range guard.Stages() {
		for _, key := range keys {
			fa := a.Fault(stage, key, 1)
			fb := b.Fault(stage, key, 1)
			if fa != fb {
				t.Fatalf("%s/%q: two injectors with the same seed disagree: %+v vs %+v", stage, key, fa, fb)
			}
			if again := a.Fault(stage, key, 1); again != fa {
				t.Fatalf("%s/%q: same injector, same inputs, different fault", stage, key)
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := New(Options{Seed: 1, Rate: 0.5})
	b := New(Options{Seed: 2, Rate: 0.5})
	diff := 0
	for i := 0; i < 64; i++ {
		key := string(rune('a' + i%26))
		for _, stage := range guard.Stages() {
			if a.Fault(stage, key+key, 1) != b.Fault(stage, key+key, 1) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical schedules over 448 decisions")
	}
}

func TestRateZeroAndNilInjectNothing(t *testing.T) {
	var nilInj *Injector
	for _, inj := range []*Injector{New(Options{Seed: 1, Rate: 0}), nilInj} {
		for _, stage := range guard.Stages() {
			if f := inj.Fault(stage, "key", 1); f.Class != "" {
				t.Fatalf("rate-0/nil injector planted %+v", f)
			}
		}
	}
}

func TestAlwaysInjectsItsCell(t *testing.T) {
	inj := Always(guard.StageCheck, guard.ClassCorrupt)
	for i := 0; i < 16; i++ {
		f := inj.Fault(guard.StageCheck, string(rune('a'+i)), 1)
		if f.Class != guard.ClassCorrupt {
			t.Fatalf("Always cell missed on key %d: %+v", i, f)
		}
	}
	if f := inj.Fault(guard.StageStyle, "x", 1); f.Class != "" {
		t.Fatalf("Always leaked outside its stage: %+v", f)
	}
}

func TestTransientRecoversAfterConfiguredAttempts(t *testing.T) {
	inj := New(Options{Rate: 1, Kinds: []guard.Class{guard.ClassTransient}, TransientFailures: 2})
	if f := inj.Fault(guard.StageCheck, "k", 1); f.Class != guard.ClassTransient {
		t.Fatalf("attempt 1: %+v", f)
	}
	if f := inj.Fault(guard.StageCheck, "k", 2); f.Class != guard.ClassTransient {
		t.Fatalf("attempt 2: %+v", f)
	}
	if f := inj.Fault(guard.StageCheck, "k", 3); f.Class != "" {
		t.Fatalf("attempt 3 should recover: %+v", f)
	}
}

func TestRateIsApproximatelyHonored(t *testing.T) {
	inj := New(Options{Seed: 3, Rate: 0.25})
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if f := inj.Fault(guard.StageInterp, string(rune(i))+"|"+string(rune(i*7)), 1); f.Class != "" {
			fired++
		}
	}
	got := float64(fired) / n
	if got < 0.18 || got > 0.32 {
		t.Fatalf("rate 0.25 fired %.3f of the time", got)
	}
}
