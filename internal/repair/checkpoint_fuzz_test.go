package repair

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointOpen feeds arbitrary bytes to the checkpoint loader
// under an arbitrary key. Opening must heal whatever it is given —
// keep the valid prefix, or start a fresh log — without panicking, and
// opening the healed log again must give the same records and the same
// bytes. The corpus under testdata/fuzz holds logs the crash smoke's
// kill matrix tore mid-append.
func FuzzCheckpointOpen(f *testing.F) {
	f.Add("k", []byte(`{"t":"hdr","v":2,"key":"k","i":0}
{"t":"init","i":0,"o":{"score":{"errors":1,"behavior_ok":true,"pass_ratio":1,"latency_ms":0,"diags":null,"report":{},"per_target":null,"res":{},"res_ok":false}}}
{"t":"cand","i":0,"sig":"0123456789abcdef","o":{"score":{"errors":0,"behavior_ok":tr`))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		path := filepath.Join(t.TempDir(), "search.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]byte, []byte) {
			c, err := openCheckpoint(path, key)
			if err != nil {
				t.Fatal(err)
			}
			c.close()
			state, err := json.Marshal([]any{c.init, c.records})
			if err != nil {
				t.Fatal(err)
			}
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return state, healed
		}
		state, healed := open()
		state2, healed2 := open()
		if !bytes.Equal(state, state2) {
			t.Fatalf("reopening the healed log changed its records:\n%s\n---\n%s", state, state2)
		}
		if !bytes.Equal(healed, healed2) {
			t.Fatalf("reopening rewrote the healed log:\n%s\n---\n%s", healed, healed2)
		}
	})
}
