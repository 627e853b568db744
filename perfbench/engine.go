package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/diorama/continual/internal/cq"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/wal"
)

// engineSettings are the continual.Options fields the workloads vary.
type engineSettings struct {
	parallelism    int
	push           bool
	pushQueue      int
	shareTemplates bool
}

// cqConfig builds the manager configuration exactly as continual.OpenWith
// and continual.OpenDurable do: DRA and automatic GC on, the auto
// strategy, default guard policy, everything reporting into reg.
func cqConfig(reg *obs.Registry, s engineSettings) cq.Config {
	return cq.Config{
		UseDRA:         true,
		AutoGC:         true,
		Parallelism:    s.parallelism,
		Strategy:       dra.StrategyAuto,
		Metrics:        reg,
		Push:           s.push,
		PushQueue:      s.pushQueue,
		Guard:          guard.Policy{},
		ShareTemplates: s.shareTemplates,
	}
}

// memEngine is the in-memory engine continual.OpenWith builds.
func memEngine(s engineSettings) (*storage.Store, *cq.Manager, *obs.Registry) {
	store := storage.NewStore()
	reg := obs.NewRegistry()
	store.Instrument(reg)
	store.SetWatermarks(storage.Watermarks{})
	return store, cq.NewManagerConfig(store, cqConfig(reg, s)), reg
}

func (s engineSettings) describe(e *envBlock) {
	e.add("parallelism", fmt.Sprintf("%d (0 = GOMAXPROCS)", s.parallelism))
	e.add("push", fmt.Sprint(s.push))
	e.add("push_queue", fmt.Sprint(s.pushQueue))
	e.add("share_templates", fmt.Sprint(s.shareTemplates))
	e.add("strategy", "auto")
}

// setupRuns builds a workload's world reps times and keeps the last
// one; every earlier world is closed before the next is built. The
// returned durations are the set-up times, GC excluded.
func setupRuns[W any](reps int, build func() (W, error), discard func(W)) (W, []time.Duration, error) {
	var w W
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(w)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = build()
		if err != nil {
			var zero W
			return zero, nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return w, ds, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// register registers one continual query under the benchmark's clock
// (and a span when traced).
func register(mgr *cq.Manager, tr *tracer, def cq.Def, times *[]time.Duration) error {
	id := tr.begin(spanRegister, 0, -1)
	t0 := time.Now()
	_, err := mgr.Register(def)
	*times = append(*times, time.Since(t0))
	tr.end(id)
	if err != nil {
		return fmt.Errorf("register %s: %w", def.Name, err)
	}
	return nil
}

// crashFS is the real filesystem with a gate: every operation holds a
// read lock, and image holds the write lock while it copies the data
// directory. The copy is therefore one instant of the directory, which
// is what a killed process leaves behind (the operating system keeps
// whatever was written, synced or not).
type crashFS struct {
	os wal.OSFS
	mu sync.RWMutex
}

func (c *crashFS) Create(name string) (wal.File, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, err := c.os.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{f: f, fs: c}, nil
}

func (c *crashFS) Open(name string) (io.ReadCloser, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.Open(name)
}

func (c *crashFS) List(dir string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.List(dir)
}

func (c *crashFS) Rename(oldname, newname string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.Rename(oldname, newname)
}

func (c *crashFS) Remove(name string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.Remove(name)
}

func (c *crashFS) MkdirAll(dir string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.MkdirAll(dir)
}

func (c *crashFS) SyncDir(dir string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.os.SyncDir(dir)
}

type crashFile struct {
	f  wal.File
	fs *crashFS
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.f.Write(p)
}

func (f *crashFile) Sync() error {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.f.Sync()
}

func (f *crashFile) Close() error {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.f.Close()
}

// image copies the regular files under src into each of dsts, all at
// one instant, and returns the file count and bytes of one image.
func (c *crashFS) image(src string, dsts ...string) (files int, bytes int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	err = filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			names = append(names, p)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i, dst := range dsts {
		for _, p := range names {
			rel, err := filepath.Rel(src, p)
			if err != nil {
				return 0, 0, err
			}
			n, err := copyFile(p, filepath.Join(dst, rel))
			if err != nil {
				return 0, 0, err
			}
			if i == 0 {
				bytes += n
			}
		}
	}
	return len(names), bytes, nil
}

func copyFile(src, dst string) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return 0, err
	}
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if err != nil {
		out.Close()
		return 0, err
	}
	return n, out.Close()
}
