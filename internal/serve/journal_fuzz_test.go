package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to journal replay. Replay
// must heal whatever it is given without panicking, and replaying the
// healed journal again must give the same jobs and the same bytes. The
// corpus under testdata/fuzz holds journals the crash smoke's kill
// matrix left behind, torn accepted record included.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"id":"j-000001","state":"accepted","req":{"kind":"check","source":"int kernel(int x){return x;}","kernel":"kernel"},"ms":1}
{"id":"j-000001","state":"done","result":{},"ms":2}
{"id":"j-0000`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() ([]*journalEntry, []byte) {
			j, entries, err := openJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			j.close()
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return entries, healed
		}
		first, healed := replay()
		second, again := replay()
		if !bytes.Equal(healed, again) {
			t.Fatalf("second replay rewrote the healed journal:\n%s\n---\n%s", healed, again)
		}
		if len(first) != len(second) {
			t.Fatalf("replay found %d jobs, the healed journal %d", len(first), len(second))
		}
		for i := range first {
			if first[i].id != second[i].id || first[i].state != second[i].state {
				t.Fatalf("job %d: %s/%s, then %s/%s", i, first[i].id, first[i].state, second[i].id, second[i].state)
			}
		}
	})
}
