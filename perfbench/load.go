package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally accumulates what one load phase observed.
type tally struct {
	mu        sync.Mutex
	start     time.Time
	reads     samples   // to the last byte
	readTTFB  samples   // to the first byte
	readAt    []float64 // completion, seconds after start
	writes    samples
	byKind    map[string]samples
	attempted int
	failed    int
	inLimit   int     // reads that finished within the latency limit
	late      samples // open loop: dispatch lag behind the due time
	errs      []string
}

func newTally() *tally { return &tally{byKind: map[string]samples{}, start: time.Now()} }

// windowed splits the reads into k equal time windows by completion and
// returns the median over windows of each window's p50, tail, TTFB p50
// and completion rate (per second): one burst (a write stall, a GC) then
// moves one window, not the figure.
func (t *tally) windowed(k int, pct int) (p50, tail, ttfb, rate float64) {
	if len(t.reads) == 0 {
		return 0, 0, 0, 0
	}
	span := 0.0
	for _, a := range t.readAt {
		span = max(span, a)
	}
	ws := make([]samples, k)
	wt := make([]samples, k)
	for i, a := range t.readAt {
		w := min(int(a/span*float64(k)), k-1)
		ws[w] = append(ws[w], t.reads[i])
		wt[w] = append(wt[w], t.readTTFB[i])
	}
	var ps, ts, fs, rs []float64
	for i := range ws {
		rs = append(rs, float64(len(ws[i]))/(span/float64(k)))
		if len(ws[i]) == 0 {
			continue
		}
		ps = append(ps, ws[i].p50())
		ts = append(ts, ws[i].tail(pct))
		fs = append(fs, wt[i].p50())
	}
	return median(ps), median(ts), median(fs), median(rs)
}

// record files one completed operation; start is when it was due (open
// loop) or sent (closed loop).
func (t *tally) record(r *request, rep *reply, limitMS float64) {
	err := verify(r, rep)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	ms := float64(rep.total) / float64(time.Millisecond)
	if r.write {
		t.writes = append(t.writes, ms)
	} else {
		t.reads = append(t.reads, ms)
		t.readTTFB = append(t.readTTFB, float64(rep.ttfb)/float64(time.Millisecond))
		t.readAt = append(t.readAt, time.Since(t.start).Seconds())
		if ms <= limitMS {
			t.inLimit++
		}
	}
	t.byKind[r.kind] = append(t.byKind[r.kind], ms)
}

// fail files an operation that could not be attempted (the server died).
func (t *tally) fail(msg string) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
	t.mu.Unlock()
}

// closedLoop runs each stream on its own connection back to back for
// dur; a stream returns nil when it has nothing more to send.
func closedLoop(ctx context.Context, base string, dur time.Duration, limitMS float64, t *tally, streams ...func() *request) {
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	var wg sync.WaitGroup
	for _, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWire(base)
			defer w.close()
			for ctx.Err() == nil {
				r := next()
				if r == nil {
					return
				}
				// an operation in flight when the window closes still
				// completes and counts
				t.record(r, w.do(r, time.Now()), limitMS)
			}
		}()
	}
	wg.Wait()
}

// spinWindow is how long before a due time an open-loop connection stops
// sleeping and spins, so that the send does not wait for a CPU to wake.
const spinWindow = 100 * time.Microsecond

// openLoop sends reqs at their due offsets from the phase start over
// conns connections. Each connection takes the next unsent request when
// it is free and sends it at its due time, or at once when it is already
// late; latency is timed from the due time, so a backlog shows up as
// latency rather than being hidden.
func openLoop(base string, conns int, reqs []*request, due []time.Duration, limitMS float64, t *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The runtime's timers wake a sleeping goroutine through the
			// netpoller at millisecond granularity, which would show up
			// as up to 1 ms of generator lag on every request. Each
			// connection therefore sleeps with nanosleep(2), without
			// timer slack, on a thread of its own.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
			w := newWire(base)
			defer w.close()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				at := t0.Add(due[k])
				if d := time.Until(at) - spinWindow; d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					syscall.Nanosleep(&ts, nil)
				}
				for time.Now().Before(at) {
				}
				lag := time.Since(at)
				t.record(reqs[k], w.do(reqs[k], at), limitMS)
				t.mu.Lock()
				t.late = append(t.late, float64(lag)/float64(time.Millisecond))
				t.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
