// Package jsonlog is the crash-safe JSON-lines file protocol behind
// both durable logs in the system: hgserve's job journal
// (internal/serve) and the evaluation cache's persistent tier
// (internal/evalcache). It owns the bytes-on-disk half of durability:
//
//   - Lines reads a file back as its lines, torn tail included, for the
//     caller's decoder to accept or reject;
//   - Rewrite replaces a file atomically (tmp, flush, fsync, close,
//     rename), and WriteTmp is its first half for callers that rename
//     several files in an order of their own;
//   - Appender extends a file line by line, with Flush (to the kernel,
//     surviving a process kill) and Sync (to the disk, surviving power
//     loss) left to the caller's policy.
//
// What a malformed line means, when to fsync, and how to fold or
// compact records stay with each caller.
package jsonlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"

	"github.com/hetero/heterogen/internal/crashpoint"
)

// Lines returns the non-blank lines of the file at path, with
// surrounding whitespace trimmed. The torn final line a crash
// mid-append leaves comes back like any other line. The error is
// os.ReadFile's, so os.IsNotExist tells a missing file apart.
func Lines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines [][]byte
	for _, l := range bytes.Split(data, []byte("\n")) {
		if l = bytes.TrimSpace(l); len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// TmpPath names the file WriteTmp builds for path.
func TmpPath(path string) string { return path + ".tmp" }

// A Writer buffers a file's new contents for WriteTmp and Rewrite.
// Write errors stick and surface when the file is flushed.
type Writer struct{ *bufio.Writer }

// Put writes v as one JSON line. A value that does not marshal is
// skipped.
func (w Writer) Put(v any) {
	if b, err := json.Marshal(v); err == nil {
		w.Write(append(b, '\n'))
	}
}

// WriteTmp writes TmpPath(path) through fill, then flushes, fsyncs and
// closes it: once it returns nil the bytes are on disk. On error the
// tmp file is removed.
func WriteTmp(path string, fill func(Writer)) error {
	tmp := TmpPath(path)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(Writer{w})
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Rewrite atomically replaces the file at path with what fill writes:
// a crash at any point leaves either the old file or the new one,
// never a mix.
func Rewrite(path string, fill func(Writer)) error {
	if err := WriteTmp(path, fill); err != nil {
		return err
	}
	if err := os.Rename(TmpPath(path), path); err != nil {
		os.Remove(TmpPath(path))
		return err
	}
	return nil
}

// Appender appends lines to one file through a write buffer. It is not
// safe for concurrent use.
type Appender struct {
	f    *os.File
	w    *bufio.Writer
	site string
}

// OpenAppender opens path for appending, creating it if missing. site
// names the crashpoint at which Append stages a torn write.
func OpenAppender(path, site string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f, w: bufio.NewWriter(f), site: site}, nil
}

// Append buffers line and a newline; line must not contain one, and
// its spare capacity may be used. When the appender's crashpoint site
// fires, Append instead stages the state a kill mid-append leaves —
// the first half of line, flushed and fsynced, no newline — and
// SIGKILLs the process.
func (a *Appender) Append(line []byte) error {
	if crashpoint.Hit(a.site) {
		a.w.Write(line[:len(line)/2])
		a.w.Flush()
		a.f.Sync()
		crashpoint.Kill()
	}
	_, err := a.w.Write(append(line, '\n'))
	return err
}

// Flush hands buffered lines to the kernel: they survive a process
// kill, not a power loss.
func (a *Appender) Flush() error { return a.w.Flush() }

// Sync flushes and fsyncs: every appended line is on disk.
func (a *Appender) Sync() error {
	if err := a.w.Flush(); err != nil {
		return err
	}
	return a.f.Sync()
}

// Close flushes and closes the file without an fsync.
func (a *Appender) Close() error {
	err := a.w.Flush()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// File returns the file the appender writes.
func (a *Appender) File() *os.File { return a.f }
