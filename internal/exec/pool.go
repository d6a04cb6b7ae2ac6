package exec

import (
	"context"
	"sync"
	"time"

	"kgexplore/internal/wj"
)

// DrivePools drives every stepper of pools[l] concurrently, one Drive per
// stepper under opts[l] — the worker pools of parallel Audit Join, of a
// scatter-gather's strata and of a distributed worker's leaves. When tick is
// non-nil, each stepper publishes a clone of its accumulator every
// opts[l].Interval, and tick receives every tickEvery the latest clones
// merged per pool in stepper order (pools without a clone yet are left
// out), on its own goroutine, so the merged stream outlives any stepper
// that stops early; returning false stops every stepper. The steppers'
// own accumulators are never read concurrently: callers read the final
// ones after DrivePools returns. It returns the Drive errors, pool-major.
func DrivePools[S AccStepper](ctx context.Context, pools [][]S, opts []Options, tickEvery time.Duration, tick func(pools []*wj.Acc) bool) []error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex // guards latest
	latest := make([][]*wj.Acc, len(pools))
	for l := range pools {
		latest[l] = make([]*wj.Acc, len(pools[l]))
	}
	merged := func() []*wj.Acc {
		mu.Lock()
		defer mu.Unlock()
		accs := make([]*wj.Acc, 0, len(latest))
		for _, pool := range latest {
			var m *wj.Acc
			for _, a := range pool {
				if a == nil {
					continue
				}
				if m == nil {
					m = wj.NewAcc()
					m.Distinct = a.Distinct
				}
				m.Merge(a)
			}
			if m != nil {
				accs = append(accs, m)
			}
		}
		return accs
	}
	stop := func() {}
	if tick != nil {
		stop = Every(tickEvery, func() bool {
			if !tick(merged()) {
				cancel()
				return false
			}
			return true
		})
	}
	n := 0
	for _, pool := range pools {
		n += len(pool)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	e := 0
	for l, pool := range pools {
		for j, w := range pool {
			o := opts[l]
			if tick != nil && o.Interval > 0 {
				o.OnSnapshot = func(Progress) bool {
					c := w.Acc().Clone()
					mu.Lock()
					latest[l][j] = c
					mu.Unlock()
					return true
				}
			}
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				_, errs[e] = Drive(ctx, w, o)
			}(e)
			e++
		}
	}
	wg.Wait()
	stop()
	return errs
}

// Every calls fn every d on its own goroutine until fn returns false or the
// returned stop is called; stop waits for a call in progress to finish.
func Every(d time.Duration, fn func() bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if !fn() {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
