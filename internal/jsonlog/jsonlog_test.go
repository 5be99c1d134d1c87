package jsonlog

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRewriteRemovesTmpOnError: a rewrite that cannot land leaves the
// target as it was and no tmp behind. Here the rename fails because the
// target is a non-empty directory.
func TestRewriteRemovesTmpOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := Rewrite(path, func(w Writer) { w.Put(map[string]int{"a": 1}) })
	if err == nil {
		t.Fatal("rewrite over a non-empty directory succeeded")
	}
	if _, err := os.Stat(TmpPath(path)); !os.IsNotExist(err) {
		t.Errorf("tmp left behind after a failed rewrite (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(path, "keep")); err != nil {
		t.Errorf("failed rewrite disturbed the target: %v", err)
	}
}
