package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/bench/stats"
)

// The load generator is a closed loop: each client goroutine owns one
// keep-alive connection and sends its next request only after the previous
// reply arrived, because callers of a resolver wait for each answer. There
// are never more clients than cores, and no retries: a refused or failed
// request counts as failed.

// request is one pre-encoded operation. Bodies and URLs are built before
// any timing starts.
type request struct {
	kind   int // index into the phase's per-kind latency samples
	method string
	url    *url.URL
	body   []byte
	tag    int    // the source's own reference: a query index
	ref    string // or an instance id
}

// source feeds one phase. next and done are called on the client's own
// goroutine, so per-client state needs no lock; done gets the status (0 on
// a transport error) and the reply body, valid only during the call.
type source interface {
	next(client int) request
	done(client int, r request, status int, reply []byte)
}

// phaseResult is what one measured phase saw.
type phaseResult struct {
	clients  int
	wall     time.Duration // start of the phase to its last reply
	ops      int
	failed   int
	lat      [][]float64   // per kind, client-observed latency in µs of the answered operations
	overhead time.Duration // time the clients spent outside HTTP calls, summed
}

// rps is the completed operations per second of the whole phase, failed
// operations included: what was sent, over the time it took.
func (p *phaseResult) rps() float64 { return float64(p.ops) / p.wall.Seconds() }

// p99 is the 99th percentile of one kind's latencies over the whole phase, so
// a rare stall — a WAL compaction, a lock convoy — counts at its full weight.
// Exact says whether ten samples lay beyond it.
func (p *phaseResult) p99(kind int) stats.Tail { return stats.TailPercentile(p.lat[kind], 0.99) }

// newHTTPClient returns a client whose connection pool fits the phase with
// the most clients, so every client keeps one warm connection.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}
}

// runPhase drives clients closed loops against the source for d and
// records every operation. kinds is the number of request kinds.
func runPhase(c *http.Client, src source, clients, kinds int, d time.Duration) *phaseResult {
	type clientResult struct {
		lat         [][]float64
		ops, failed int
		busy        time.Duration
		first, last time.Time
	}
	results := make([]clientResult, clients)
	begin := time.Now()
	end := begin.Add(d)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			res := &results[cl]
			res.lat = make([][]float64, kinds)
			for k := range res.lat {
				res.lat[k] = make([]float64, 0, 1<<16)
			}
			var reply bytes.Buffer
			res.first = time.Now()
			for time.Now().Before(end) {
				r := src.next(cl)
				req := &http.Request{
					Method: r.method, URL: r.url, Host: r.url.Host,
					Header: http.Header{"Content-Type": []string{"application/json"}},
				}
				if r.body != nil {
					req.Body = io.NopCloser(bytes.NewReader(r.body))
					req.ContentLength = int64(len(r.body))
				}
				t0 := time.Now()
				status := 0
				reply.Reset()
				resp, err := c.Do(req)
				if err == nil {
					status = resp.StatusCode
					if _, err := reply.ReadFrom(resp.Body); err != nil {
						status = 0
					}
					resp.Body.Close()
				}
				t1 := time.Now()
				res.last = t1
				res.busy += t1.Sub(t0)
				res.ops++
				if status < 200 || status > 299 {
					res.failed++
				} else {
					res.lat[r.kind] = append(res.lat[r.kind], float64(t1.Sub(t0))/1e3)
				}
				src.done(cl, r, status, reply.Bytes())
			}
		}(cl)
	}
	wg.Wait()

	out := &phaseResult{clients: clients, lat: make([][]float64, kinds)}
	var last time.Time
	for i := range results {
		res := &results[i]
		out.ops += res.ops
		out.failed += res.failed
		for k := range res.lat {
			out.lat[k] = append(out.lat[k], res.lat[k]...)
		}
		if res.ops == 0 {
			continue
		}
		if res.last.After(last) {
			last = res.last
		}
		out.overhead += res.last.Sub(res.first) - res.busy
	}
	out.wall = last.Sub(begin) // the clients start within microseconds of begin
	return out
}
