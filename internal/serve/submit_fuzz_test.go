package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hetero/heterogen/internal/subjects"
)

// FuzzSubmitRequest feeds arbitrary bytes to POST /v1/jobs. The server
// is built without workers, so no job runs and no submitted source is
// executed. Each body is posted twice to a server whose queue holds one
// job, so an accepted first post makes the second a queue-full
// rejection. Every response must be 202, 400 or 429, and every accepted
// job's budget must lie within the server's limits. The corpus is the
// request bodies the serve tests send.
func FuzzSubmitRequest(f *testing.F) {
	p2 := subjects.P2()
	for _, req := range []Request{
		{Kind: KindTranspile, Source: p2.Source, Kernel: p2.Kernel, Budget: smallBudget()},
		{Kind: KindCheck, Source: p2.Source, Kernel: p2.Kernel},
		{Kind: KindRepair, Source: p2.Source, Kernel: p2.Kernel, Budget: smallBudget(),
			Targets: []string{"zc706", "vivado_hls:xcvu9p"}},
		{Kind: KindFuzz, Source: p2.Source, Kernel: p2.Kernel,
			Budget: Budget{FuzzExecs: 1_000_000_000, MaxIterations: 9999, InterpSteps: 1 << 60}},
		{Kind: KindFuzz, Source: "int kernel(int n) { return n; }", Kernel: "kernel", Seed: 7,
			Budget: Budget{FuzzExecs: 40, MaxIterations: 2, Workers: 1, InterpSteps: 300}},
		{Kind: KindRepair, Source: p2.Source, Kernel: p2.Kernel, Targets: []string{"no_such_device"}},
		{Kind: "explode", Source: p2.Source, Kernel: p2.Kernel},
		{Kind: KindCheck, Kernel: p2.Kernel},
		{Kind: KindCheck, Source: p2.Source},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"kind":"check","source":"int k(){return 0;}","kernel":"k","budget":{"workers":-3,"stage_deadline_ms":-1}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(Options{QueueDepth: 1})
		defer s.stop()
		h := s.Handler()
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				t.Fatalf("post %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, j := range s.jobs {
			b, l := j.budget, s.limits
			if b.StageDeadlineMS <= 0 || b.StageDeadlineMS > l.StageDeadlineMS ||
				b.InterpSteps <= 0 || b.InterpSteps > l.InterpSteps ||
				b.FuzzExecs <= 0 || b.FuzzExecs > l.FuzzExecs ||
				b.MaxIterations <= 0 || b.MaxIterations > l.MaxIterations ||
				b.Workers <= 0 || b.Workers > l.Workers {
				t.Fatalf("job %s: budget %+v outside limits %+v", id, b, l)
			}
		}
	})
}
