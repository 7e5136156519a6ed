package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// loopStats is what one closed loop measured.
type loopStats struct {
	ops, failed int
	firstErr    error
	wall        time.Duration
	lat         []time.Duration
	classLat    map[string][]time.Duration
	tau         int64
	cpu         time.Duration
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
}

func (l *loopStats) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// quantile is the nearest-rank q-quantile of the op latencies.
func (l *loopStats) quantile(q float64) time.Duration { return quantile(l.lat, q) }

// beyond is the number of samples above the nearest-rank q-quantile.
func (l *loopStats) beyond(q float64) int { return len(l.lat) - rank(len(l.lat), q) }

func (l *loopStats) classStats() map[string]classStat {
	out := make(map[string]classStat, len(l.classLat))
	for c, lat := range l.classLat {
		out[c] = classStat{Ops: len(lat), P50ms: ms(quantile(lat, 0.5)), P90ms: ms(quantile(lat, 0.9))}
	}
	return out
}

func rank(n int, q float64) int { return int(math.Ceil(q * float64(n))) }

func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[max(rank(len(s), q), 1)-1]
}

// ordinal returns op i's class in the repeating pattern and how many
// earlier ops of that class the sequence has had, so each class cycles
// through its own cases.
func ordinal(pattern []string, i int) (string, int) {
	pass, pos := i/len(pattern), i%len(pattern)
	cls := pattern[pos]
	per, before := 0, 0
	for k, c := range pattern {
		if c == cls {
			per++
			if k < pos {
				before++
			}
		}
	}
	return cls, pass*per + before
}

// share is the fraction of the pattern's ops in class cls.
func share(pattern []string, cls string) float64 {
	n := 0
	for _, c := range pattern {
		if c == cls {
			n++
		}
	}
	return float64(n) / float64(len(pattern))
}

// tracedRun carries a traced loop's per-client tracers and the shared
// layer counts.
type tracedRun struct {
	tracers []*tracer
	counts  *counts
}

// runLoop drives ops start, start+1, … from clients closed-loop clients
// until dur has passed, then finishes the pass in progress, so the loop
// always measures whole passes of the op sequence, at least one. With tr
// set, every op runs traced.
func runLoop(b bench, clients, start int, dur time.Duration, tr *tracedRun) loopStats {
	pass := b.passLen()
	var (
		mu       sync.Mutex
		next     = start
		stopAt   = math.MaxInt
		stopping bool
	)
	t0 := time.Now()
	deadline := t0.Add(dur)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopping && !time.Now().Before(deadline) {
			stopping = true
			stopAt = start + max((next-start+pass-1)/pass, 1)*pass
		}
		if next >= stopAt {
			return 0, false
		}
		i := next
		next++
		return i, true
	}

	per := make([]loopStats, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &per[k]
			st.classLat = map[string][]time.Duration{}
			for {
				i, ok := claim()
				if !ok {
					return
				}
				var out any
				var after func() error
				opStart := time.Now()
				if tr == nil {
					out = b.run(i)
				} else {
					root := tr.tracers[k].beginOp(i)
					out, after = b.traced(i, tr.tracers[k], tr.counts)
					tr.tracers[k].end(root)
				}
				lat := time.Since(opStart)
				var terr error
				if after != nil {
					terr = after()
				}
				st.ops++
				st.lat = append(st.lat, lat)
				cls := b.class(i)
				st.classLat[cls] = append(st.classLat[cls], lat)
				tau, err := b.check(i, out)
				if err == nil {
					err = terr
				}
				if err != nil {
					st.fail(err)
					continue
				}
				st.tau += tau
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	all := loopStats{wall: wall, cpu: cpu, classLat: map[string][]time.Duration{},
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   ms1.NumGC - ms0.NumGC,
		gcPause:    time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)}
	for _, st := range per {
		all.ops += st.ops
		all.failed += st.failed
		if all.firstErr == nil {
			all.firstErr = st.firstErr
		}
		all.tau += st.tau
		all.lat = append(all.lat, st.lat...)
		for c, l := range st.classLat {
			all.classLat[c] = append(all.classLat[c], l...)
		}
	}
	return all
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sourceDigest hashes the module's Go sources under root, skipping
// build outputs, so a checkout without git history still names the code
// it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		_, _ = io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}
