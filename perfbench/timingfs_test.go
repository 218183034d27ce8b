package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// TestTimingFSPassThrough runs the same durable streaming workload over
// the real filesystem and over a timingFS wrapping it: the digests and
// the checkpoint directories' file sets must be identical, and the
// wrapper must have seen the WAL and snapshot traffic it claims to time.
func TestTimingFSPassThrough(t *testing.T) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Population, cfg.DurationDays, cfg.BatchSize = 800, 60, 100
	cfg.Products, cfg.QueriesPerProduct = 4, 2
	src, err := dataset.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Materialize(src)

	run := func(fs checkpoint.FS) (string, []string) {
		dir := t.TempDir()
		r, err := workload.ExecuteStream(workload.Config{
			Dataset: ds, Seed: 5, CheckpointDir: dir,
			SnapshotEveryDays: 7, GroupCommitEvents: 64, DurableFS: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(files)
		return r.CanonicalDigest(), files
	}

	plainDigest, plainFiles := run(nil)
	tr := newTracer()
	tfs := newTimingFS(checkpoint.OsFS{}, tr)
	timedDigest, timedFiles := run(tfs)
	if plainDigest != timedDigest {
		t.Fatalf("digest over timingFS %s, over the real filesystem %s", timedDigest, plainDigest)
	}
	if !slices.Equal(plainFiles, timedFiles) {
		t.Fatalf("checkpoint files differ:\n plain %v\n timed %v", plainFiles, timedFiles)
	}
	if len(plainFiles) == 0 {
		t.Fatal("durable run left no checkpoint files")
	}
	st := tfs.stats()
	if len(st.fsyncMs) == 0 || st.walBytes == 0 || st.snapshotByte == 0 {
		t.Fatalf("timingFS saw fsyncs=%d walBytes=%d snapshotBytes=%d", len(st.fsyncMs), st.walBytes, st.snapshotByte)
	}
	if len(durations(tr.snapshot(), spanFsync)) != len(st.fsyncMs) {
		t.Fatal("fsync spans and fsync samples disagree")
	}
}

func TestFileKind(t *testing.T) {
	for name, want := range map[string]string{
		"/d/wal-00000003.log":        kindWAL,
		"/d/base-00000001.ckpt":      kindSnapshot,
		"/d/delta-00000002.ckpt.tmp": kindSnapshot,
		"/d/other":                   kindOther,
	} {
		if got := fileKind(name); got != want {
			t.Errorf("fileKind(%q) = %q, want %q", name, got, want)
		}
	}
}
