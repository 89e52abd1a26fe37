// Package wp is golden input for workerpool: loop-launched goroutines and
// the partition-by-index discipline.
package wp

import "sync"

// good is the par.Plan.Run shape: each worker writes only its own slot,
// indexed by a parameter, and the loop joins before reading.
func good(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for w, it := range items {
		wg.Add(1)
		go func(w, it int) {
			defer wg.Done()
			out[w] = it * 2
		}(w, it)
	}
	wg.Wait()
	return out
}

// goodLoopVar partitions by the per-iteration loop variable (Go 1.22).
func goodLoopVar(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for w := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = w
		}()
	}
	wg.Wait()
	return out
}

// badSharedIndex indexes with a cursor shared by all workers.
func badSharedIndex(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	next := 0
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[next] = 1 // want "writes shared slice out at non-partitioned index next"
			next++        // want "assigns captured variable next"
		}()
	}
	wg.Wait()
	return out
}

// badMap writes a shared map: racy even at distinct keys.
func badMap(items []int) map[int]int {
	m := make(map[int]int)
	var wg sync.WaitGroup
	for w, it := range items {
		wg.Add(1)
		go func(w, it int) {
			defer wg.Done()
			m[w] = it // want "writes shared map m without holding a lock"
		}(w, it)
	}
	wg.Wait()
	return m
}

// lockedMap holds a visible mutex: fine.
func lockedMap(items []int) map[int]int {
	m := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w, it := range items {
		wg.Add(1)
		go func(w, it int) {
			defer wg.Done()
			mu.Lock()
			m[w] = it
			mu.Unlock()
		}(w, it)
	}
	wg.Wait()
	return m
}

// badAppend grows a shared slice from every worker.
func badAppend(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			out = append(out, it) // want "assigns captured variable out"
		}(it)
	}
	wg.Wait()
	return out
}

// noJoin writes partitioned slots but never joins before returning.
func noJoin(items []int) []int {
	out := make([]int, len(items))
	for w, it := range items {
		go func(w, it int) { // want "no visible sync.WaitGroup join in noJoin"
			out[w] = it
		}(w, it)
	}
	return out
}

// channels only sends; the receive is the join, nothing to report.
func channels(items []int) []int {
	ch := make(chan int)
	for _, it := range items {
		go func(it int) { ch <- it * 2 }(it)
	}
	out := make([]int, 0, len(items))
	for range items {
		out = append(out, <-ch)
	}
	return out
}

// single is not loop-launched: out of scope.
func single(done chan struct{}) int {
	x := 0
	go func() {
		x = 1
		close(done)
	}()
	<-done
	return x
}

// suppressed excuses a known-single-worker loop with a justification.
func suppressed(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for _, it := range items[:1] {
		wg.Add(1)
		//moma:workerpool-ok the slice is truncated to one element above
		go func(it int) {
			defer wg.Done()
			out = append(out, it)
		}(it)
	}
	wg.Wait()
	return out
}
