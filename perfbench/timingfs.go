package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// timingFS wraps a checkpoint.FS and times the calls that cost disk time:
// writes and fsyncs, split by file kind. Every call passes through to the
// wrapped filesystem unchanged — same arguments, same results — so a run
// over a timingFS computes and persists exactly what a run over the inner
// filesystem does.
type timingFS struct {
	inner checkpoint.FS
	t     *tracer // nil: aggregate only, no spans

	mu         sync.Mutex
	fsyncMs    []float64
	writeTime  map[string]time.Duration // by file kind
	writeBytes map[string]int64         // by file kind
}

// File kinds, from the generation store's naming (store.go): write-ahead
// log segments, and snapshot generations (bases and deltas, including
// their .tmp staging files).
const (
	kindWAL      = "wal"
	kindSnapshot = "snapshot"
	kindOther    = "other"
)

func fileKind(name string) string {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return kindWAL
	case strings.HasPrefix(base, "base-"), strings.HasPrefix(base, "delta-"):
		return kindSnapshot
	default:
		return kindOther
	}
}

func newTimingFS(inner checkpoint.FS, t *tracer) *timingFS {
	return &timingFS{
		inner:      inner,
		t:          t,
		writeTime:  map[string]time.Duration{},
		writeBytes: map[string]int64{},
	}
}

func (fs *timingFS) recordWrite(kind string, start, end time.Time, n int) {
	fs.mu.Lock()
	fs.writeTime[kind] += end.Sub(start)
	fs.writeBytes[kind] += int64(n)
	fs.mu.Unlock()
	if fs.t != nil {
		fs.t.add(span{ID: fs.t.newID(), Name: spanWrite, Kind: kind, Bytes: n,
			Start: fs.t.at(start), End: fs.t.at(end)})
	}
}

func (fs *timingFS) recordSync(kind string, start, end time.Time) {
	fs.mu.Lock()
	fs.fsyncMs = append(fs.fsyncMs, ms(end.Sub(start)))
	fs.mu.Unlock()
	if fs.t != nil {
		fs.t.add(span{ID: fs.t.newID(), Name: spanFsync, Kind: kind,
			Start: fs.t.at(start), End: fs.t.at(end)})
	}
}

// OpenFile implements checkpoint.FS.
func (fs *timingFS) OpenFile(name string, flag int, perm os.FileMode) (checkpoint.File, error) {
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs, kind: fileKind(name)}, nil
}

// Rename implements checkpoint.FS.
func (fs *timingFS) Rename(oldpath, newpath string) error { return fs.inner.Rename(oldpath, newpath) }

// Remove implements checkpoint.FS.
func (fs *timingFS) Remove(name string) error { return fs.inner.Remove(name) }

// ReadFile implements checkpoint.FS.
func (fs *timingFS) ReadFile(name string) ([]byte, error) { return fs.inner.ReadFile(name) }

// ReadDir implements checkpoint.FS.
func (fs *timingFS) ReadDir(name string) ([]os.DirEntry, error) { return fs.inner.ReadDir(name) }

// MkdirAll implements checkpoint.FS.
func (fs *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return fs.inner.MkdirAll(path, perm)
}

// SyncDir implements checkpoint.FS; a directory fsync counts as an fsync.
func (fs *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := fs.inner.SyncDir(dir)
	fs.recordSync("dir", start, time.Now())
	return err
}

// timingFile times Write, WriteAt and Sync; every other method is the
// embedded file's own.
type timingFile struct {
	checkpoint.File
	fs   *timingFS
	kind string
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.recordWrite(f.kind, start, time.Now(), n)
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.recordWrite(f.kind, start, time.Now(), n)
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.recordSync(f.kind, start, time.Now())
	return err
}

// fsStats is what a pass reads off its timingFS once the run finished.
type fsStats struct {
	fsyncMs                []float64
	walWrite, snapWrite    time.Duration
	walBytes, snapshotByte int64
}

func (fs *timingFS) stats() fsStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fsStats{
		fsyncMs:      append([]float64(nil), fs.fsyncMs...),
		walWrite:     fs.writeTime[kindWAL],
		snapWrite:    fs.writeTime[kindSnapshot],
		walBytes:     fs.writeBytes[kindWAL],
		snapshotByte: fs.writeBytes[kindSnapshot],
	}
}
