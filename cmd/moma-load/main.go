// Command moma-load drives a running moma-serve instance with synthetic
// query traffic and reports throughput and latency percentiles — the load
// harness of the online resolution subsystem (cf. honeycombio/loadgen's
// generator/sender split, reduced to one binary).
//
// Queries are drawn from a generated sources world: by default the DBLP
// publication titles are fired at the served ACM publication set, the
// cross-source resolution the batch experiments run offline. Each worker
// sends synchronous POST /sets/{set}/resolve requests; latencies are
// collected per worker and merged for the final report. The target's
// /metrics endpoint is scraped before and after the run, and the delta of
// the engine-side resolve-stage histograms is printed next to the
// client-side percentiles — where the time went, not just how long it took.
//
// The client is overload-aware: a server answering 429 (admission shed) or
// 503 (draining, degraded store) is retried with capped exponential backoff
// plus jitter, honoring Retry-After, up to -retries attempts; the report
// counts the retries and sheds each phase absorbed. With -adds N the run
// appends a write phase that feeds N new instances through the add
// endpoint under the same retry policy — the client half of a chaos drill
// against a fault-injected moma-serve.
//
// Usage:
//
//	moma-load [-url http://127.0.0.1:8080] [-set ACM.Publication] \
//	          [-concurrency 8] [-duration 10s | -requests 5000] \
//	          [-adds 0] [-retries 3] [flags]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sources"
)

type resolveRequest struct {
	ID    string            `json:"id,omitempty"`
	Attrs map[string]string `json:"attrs"`
	Limit int               `json:"limit,omitempty"`
}

type resolveResponse struct {
	Matches []struct {
		ID  string  `json:"id"`
		Sim float64 `json:"sim"`
	} `json:"matches"`
	TookUS int64 `json:"took_us"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "moma-serve base URL")
	set := flag.String("set", "ACM.Publication", "served set to resolve against")
	source := flag.String("source", "DBLP", "world source supplying the query records (DBLP, ACM or GS)")
	scale := flag.String("scale", "small", "query dataset scale: paper or small")
	seed := flag.Int64("seed", 0, "override the dataset seed (0 keeps the default)")
	queryAttr := flag.String("query-attr", "title", "attribute name sent in resolve requests")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	duration := flag.Duration("duration", 10*time.Second, "run length (ignored with -requests)")
	requests := flag.Int("requests", 0, "total request budget (0 = run for -duration)")
	limit := flag.Int("limit", 5, "match limit per request")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	retries := flag.Int("retries", 3, "retry attempts per request on 429/503/network errors")
	backoff := flag.Duration("backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, with jitter)")
	backoffMax := flag.Duration("backoff-max", time.Second, "retry backoff cap")
	adds := flag.Int("adds", 0, "after the resolve phase, add this many new instances through the write path")
	flag.Parse()

	pol := retryPolicy{max: *retries, base: *backoff, cap: *backoffMax}
	if err := run(*url, *set, *source, *scale, *seed, *queryAttr, *concurrency, *duration, *requests, *limit, *timeout, *adds, pol); err != nil {
		fmt.Fprintf(os.Stderr, "moma-load: %v\n", err)
		os.Exit(1)
	}
}

// retryPolicy bounds the retry loop around one request: up to max retries
// beyond the first attempt, base backoff doubling per attempt up to cap,
// with equal jitter so a shed burst doesn't re-collide in lockstep.
type retryPolicy struct {
	max  int
	base time.Duration
	cap  time.Duration
}

// sendRetry posts body to target, retrying transport errors and the
// overload answers — 429 (admission shed) and 503 (draining or degraded
// store) — per the policy, honoring the server's Retry-After when it asks
// for a longer pause than the backoff (still capped). It returns the final
// status with the response body read and closed, plus the retry and shed
// counts the request absorbed; err is non-nil only when the last attempt
// failed at the transport.
func sendRetry(client *http.Client, target string, body []byte, p retryPolicy, rng *rand.Rand) (status int, out []byte, retries, sheds int, err error) {
	base := p.base
	if base <= 0 {
		base = time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = client.Post(target, "application/json", bytes.NewReader(body))
		var retryAfter time.Duration
		if err == nil {
			status = resp.StatusCode
			out, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
				return status, out, retries, sheds, nil
			}
			if status == http.StatusTooManyRequests {
				sheds++
			}
			if s := resp.Header.Get("Retry-After"); s != "" {
				if n, perr := strconv.Atoi(s); perr == nil && n >= 0 {
					retryAfter = time.Duration(n) * time.Second
				}
			}
		}
		if attempt >= p.max {
			return status, out, retries, sheds, err
		}
		retries++
		wait := base << uint(attempt)
		if wait > p.cap || wait <= 0 {
			wait = p.cap
		}
		wait = wait/2 + time.Duration(rng.Int63n(int64(wait/2)+1))
		if retryAfter > wait {
			wait = retryAfter
		}
		if wait > p.cap {
			wait = p.cap
		}
		time.Sleep(wait)
	}
}

func run(baseURL, set, source, scale string, seed int64, queryAttr string, concurrency int, duration time.Duration, requests, limit int, timeout time.Duration, adds int, pol retryPolicy) error {
	var cfg sources.Config
	switch scale {
	case "paper":
		cfg = sources.PaperConfig()
	case "small":
		cfg = sources.SmallConfig()
	default:
		return fmt.Errorf("unknown scale %q (want paper or small)", scale)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	fmt.Printf("moma-load: generating %s-scale query world (seed %d)...\n", scale, cfg.Seed)
	payloads, values, err := buildPayloads(cfg, source, queryAttr, limit)
	if err != nil {
		return err
	}
	fmt.Printf("moma-load: %d query records from %s; target %s/sets/%s/resolve\n",
		len(payloads), source, baseURL, set)

	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{Timeout: timeout}
	target := strings.TrimRight(baseURL, "/") + "/sets/" + set + "/resolve"

	// Probe once so misconfiguration fails fast, not as N worker errors.
	if err := probe(client, target, payloads[0]); err != nil {
		return err
	}
	// Scrape the server's engine metrics before and after the run: the delta
	// of the resolve-stage histograms is the server-side view of the same
	// traffic the client-side percentiles below describe.
	before := scrapeStages(client, baseURL)

	var (
		sent     atomic.Int64
		matched  atomic.Int64
		errs     atomic.Int64
		nRetries atomic.Int64
		nSheds   atomic.Int64
		deadline = time.Now().Add(duration)
		lats     = make([][]time.Duration, concurrency)
		wg       sync.WaitGroup
	)
	budget := int64(requests)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0x9E3779B9*int64(w+1) + 1))
			mine := make([]time.Duration, 0, 4096)
			for {
				n := sent.Add(1)
				if budget > 0 {
					if n > budget {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				body := payloads[int(n-1)%len(payloads)]
				t0 := time.Now()
				status, rbody, r, sh, err := sendRetry(client, target, body, pol, rng)
				took := time.Since(t0)
				nRetries.Add(int64(r))
				nSheds.Add(int64(sh))
				if err != nil || status != http.StatusOK {
					errs.Add(1)
					continue
				}
				var rr resolveResponse
				if json.Unmarshal(rbody, &rr) != nil {
					errs.Add(1)
					continue
				}
				if len(rr.Matches) > 0 {
					matched.Add(1)
				}
				mine = append(mine, took)
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no successful requests (%d errors)", errs.Load())
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p / 100 * float64(len(all)-1))
		return all[i]
	}

	ok := int64(len(all))
	fmt.Printf("\nmoma-load: %d ok, %d errors in %v (%d workers)\n", ok, errs.Load(), wall.Round(time.Millisecond), concurrency)
	fmt.Printf("  throughput  %.0f req/s\n", float64(ok)/wall.Seconds())
	fmt.Printf("  match rate  %.1f%% of queries returned >=1 match\n", 100*float64(matched.Load())/float64(ok))
	fmt.Printf("  latency     mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		(sum / time.Duration(ok)).Round(time.Microsecond),
		pct(50).Round(time.Microsecond), pct(95).Round(time.Microsecond),
		pct(99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	fmt.Printf("  resilience  %d retries, %d sheds (429) absorbed\n", nRetries.Load(), nSheds.Load())
	printEngineReport(before, scrapeStages(client, baseURL))
	if adds > 0 {
		if err := runAdds(client, baseURL, set, values, adds, concurrency, pol); err != nil {
			return err
		}
	}
	if errs.Load() > 0 {
		return fmt.Errorf("%d requests failed", errs.Load())
	}
	return nil
}

// runAdds is the write phase: n add-instance requests under the same retry
// policy as the resolve phase. Each value is sent under both "title" and
// "name" so it matches whichever attribute the served set's resolver reads
// (DBLP/GS title records vs ACM name records).
func runAdds(client *http.Client, baseURL, set string, values []string, n, concurrency int, pol retryPolicy) error {
	target := strings.TrimRight(baseURL, "/") + "/sets/" + set + "/instances"
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		v := values[i%len(values)]
		b, err := json.Marshal(struct {
			ID    string            `json:"id"`
			Attrs map[string]string `json:"attrs"`
		}{ID: fmt.Sprintf("load-add-%d", i), Attrs: map[string]string{"title": v, "name": v}})
		if err != nil {
			return err
		}
		payloads[i] = b
	}
	var next, ok, errs, nRetries, nSheds atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0x9E3779B9*int64(w+1) + 2))
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				status, body, r, sh, err := sendRetry(client, target, payloads[i], pol, rng)
				nRetries.Add(int64(r))
				nSheds.Add(int64(sh))
				if err != nil || status != http.StatusOK {
					if errs.Add(1) <= 3 { // sample the first few failures for the operator
						fmt.Printf("moma-load: add %d failed: status %d, err %v, body %s\n",
							i, status, err, strings.TrimSpace(string(body)))
					}
					continue
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("\nmoma-load: add phase: %d ok, %d errors (%d retries, %d sheds absorbed) in %v\n",
		ok.Load(), errs.Load(), nRetries.Load(), nSheds.Load(), time.Since(start).Round(time.Millisecond))
	if errs.Load() > 0 {
		return fmt.Errorf("add phase: %d requests failed", errs.Load())
	}
	return nil
}

// stageAgg is one histogram's (sum, count) pair scraped from /metrics.
type stageAgg struct {
	sum   float64 // seconds
	count uint64
}

// scrapeStages fetches the target's /metrics and extracts the engine-side
// resolve-stage histograms: per-stage series keyed by stage name, the
// whole-operation histogram keyed by "". A nil return means the endpoint or
// the series are unavailable (an older server, say) — the caller skips the
// engine report rather than failing the load run.
func scrapeStages(client *http.Client, baseURL string) map[string]stageAgg {
	resp, err := client.Get(strings.TrimRight(baseURL, "/") + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	const (
		stageSum   = `moma_live_resolve_stage_seconds_sum{stage="`
		stageCount = `moma_live_resolve_stage_seconds_count{stage="`
		totalSum   = "moma_live_resolve_seconds_sum "
		totalCount = "moma_live_resolve_seconds_count "
	)
	out := make(map[string]stageAgg)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, stageSum):
			if stage, ok := labelValue(fields[0], stageSum); ok {
				a := out[stage]
				a.sum = v
				out[stage] = a
			}
		case strings.HasPrefix(line, stageCount):
			if stage, ok := labelValue(fields[0], stageCount); ok {
				a := out[stage]
				a.count = uint64(v)
				out[stage] = a
			}
		case strings.HasPrefix(line, totalSum):
			a := out[""]
			a.sum = v
			out[""] = a
		case strings.HasPrefix(line, totalCount):
			a := out[""]
			a.count = uint64(v)
			out[""] = a
		}
	}
	if _, ok := out[""]; !ok {
		return nil
	}
	return out
}

// labelValue extracts the label value from `prefix<value>"}`.
func labelValue(series, prefix string) (string, bool) {
	rest := strings.TrimPrefix(series, prefix)
	i := strings.IndexByte(rest, '"')
	if i < 0 {
		return "", false
	}
	return rest[:i], true
}

// printEngineReport renders the server-side stage breakdown of the run: the
// delta of the scraped histograms between the before and after snapshots.
func printEngineReport(before, after map[string]stageAgg) {
	if before == nil || after == nil {
		fmt.Println("  engine      /metrics unavailable; skipping server-side stage breakdown")
		return
	}
	ops := after[""].count - before[""].count
	if ops == 0 {
		fmt.Println("  engine      no resolves recorded server-side; skipping stage breakdown")
		return
	}
	totalSec := after[""].sum - before[""].sum
	fmt.Printf("  engine      %d resolves server-side, mean %v/op across stages:\n",
		ops, time.Duration(totalSec/float64(ops)*1e9).Round(time.Microsecond))
	stages := make([]string, 0, len(after))
	for s := range after {
		if s != "" {
			stages = append(stages, s)
		}
	}
	// Alphabetical order happens to be pipeline order for the resolver's
	// stages (block, profile, score) and is deterministic for any other.
	sort.Strings(stages)
	for _, s := range stages {
		d := after[s].sum - before[s].sum
		share := 0.0
		if totalSec > 0 {
			share = d / totalSec * 100
		}
		fmt.Printf("    %-9s %5.1f%%  mean %v/op\n",
			s, share, time.Duration(d/float64(ops)*1e9).Round(time.Microsecond))
	}
}

// buildPayloads pre-serializes one resolve request per query record so the
// hot loop does no JSON encoding, and returns the raw attribute values
// alongside for the add phase to reuse.
func buildPayloads(cfg sources.Config, source, queryAttr string, limit int) ([][]byte, []string, error) {
	d := sources.Generate(cfg)
	var src *sources.Source
	switch strings.ToUpper(source) {
	case "DBLP":
		src = d.DBLP
	case "ACM":
		src = d.ACM
	case "GS":
		src = d.GS
	default:
		return nil, nil, fmt.Errorf("unknown source %q (want DBLP, ACM or GS)", source)
	}
	var payloads [][]byte
	var values []string
	for i := range src.Pubs.Len() {
		// Source sets differ in their title attribute name; send the value
		// under the attribute the server's resolvers read.
		v := src.Pubs.Attr(i, "title")
		if v == "" {
			v = src.Pubs.Attr(i, "name")
		}
		if v == "" {
			continue
		}
		b, err := json.Marshal(resolveRequest{
			ID:    string(src.Pubs.IDAt(i)),
			Attrs: map[string]string{queryAttr: v},
			Limit: limit,
		})
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, b)
		values = append(values, v)
	}
	if len(payloads) == 0 {
		return nil, nil, fmt.Errorf("source %s has no usable query records", source)
	}
	return payloads, values, nil
}

// probe sends one request and demands a 2xx, surfacing server-side config
// errors before the load starts.
func probe(client *http.Client, target string, payload []byte) error {
	resp, err := client.Post(target, "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: %s returned %d: %s", target, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}
