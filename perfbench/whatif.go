package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/resilience-models/dvf/internal/serve"
	"github.com/resilience-models/dvf/internal/tracez"
)

// whatifClients is the closed-loop client count: one per CPU of the
// two-CPU reference host. Each waits for its reply before sending the
// next request, as a sweep script does.
const whatifClients = 2

// reqResult is one completed request as a client saw it.
type reqResult struct {
	status  int
	body    []byte
	err     error
	startNs int64 // offsets from the sequence start
	endNs   int64
}

// service is the in-process dvf-serve instance on a loopback listener.
type service struct {
	base string
	hs   *http.Server
	done chan error
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: serve.New(serve.Config{}).Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClients returns keep-alive clients, each with its own connection,
// already dialed through a health probe so no dial is timed.
func newClients(s *service) ([]*http.Client, error) {
	var cs []*http.Client
	for i := 0; i < whatifClients; i++ {
		c := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		}
		resp, err := c.Get(s.base + "/healthz")
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// runSequence sends reqs through the clients in a closed loop and
// returns each result (indexed like reqs) and the sequence's wall time.
func runSequence(c *ctx, s *service, cs []*http.Client, reqs []request) ([]reqResult, time.Duration) {
	results := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, cl := range cs {
		tk := c.tz.Track(fmt.Sprintf("client %d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(reqs) {
					return
				}
				results[n] = send(cl, tk, s.base, reqs[n], t0)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

// send issues one request and reads the whole reply.
func send(cl *http.Client, tk *tracez.Track, base string, r request, t0 time.Time) reqResult {
	sp := tk.Begin("serve." + classNames[r.Class])
	res := reqResult{startNs: time.Since(t0).Nanoseconds()}
	resp, err := cl.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err == nil {
		res.status = resp.StatusCode
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.endNs = time.Since(t0).Nanoseconds()
	sp.End()
	res.err = err
	return res
}

// whatifSession runs one request sequence against a fresh service and,
// when check is set, checks every response against the direct call
// outside the timed region. onStart runs just before the first request.
func whatifSession(c *ctx, reqs []request, onStart func(), check bool) error {
	s, err := startService()
	if err != nil {
		return err
	}
	cs, err := newClients(s)
	if err != nil {
		s.stop()
		return err
	}
	if onStart != nil {
		onStart()
	}
	results, wall := runSequence(c, s, cs, reqs)
	closeClients(cs)
	if err := s.stop(); err != nil {
		return fmt.Errorf("stopping the service: %w", err)
	}
	c.res.PassNs = append(c.res.PassNs, wall.Nanoseconds())
	for i, r := range results {
		c.res.Requests = append(c.res.Requests, reqTime{Class: reqs[i].Class, Ns: r.endNs - r.startNs})
	}
	if check {
		checkSession(c, reqs, results)
	}
	return nil
}

// checkSession compares every response with its reference and derives
// the cache-outcome counters from the responses.
func checkSession(c *ctx, reqs []request, results []reqResult) {
	want := expectAll(c, reqs)
	firstDone := map[string]int64{} // key -> end of its first completed response
	for i, r := range results {
		if r.err == nil && r.status == http.StatusOK {
			if t, ok := firstDone[reqs[i].Key]; !ok || r.endNs < t {
				firstDone[reqs[i].Key] = r.endNs
			}
		}
	}
	distinctAnalyze := map[string]bool{}
	var analyze, memoized int
	for i, r := range results {
		req := reqs[i]
		switch {
		case r.err != nil:
			c.add("serve.errors", 1)
			c.op(fmt.Sprintf("%s %s: %v", req.Path, req.Body, r.err))
			continue
		case r.status != http.StatusOK:
			c.add("serve.errors", 1)
			c.op(fmt.Sprintf("%s %s: status %d: %s", req.Path, req.Body, r.status, r.body))
			continue
		}
		c.op(compareResponse(req, r.body, want[req.Key]))
		var outcome struct {
			Memoized bool `json:"memoized"`
			Compiled bool `json:"compiled"`
		}
		if err := json.Unmarshal(r.body, &outcome); err != nil {
			continue // compareResponse has already failed this request
		}
		switch {
		case req.analyze != nil:
			analyze++
			distinctAnalyze[req.Key] = true
			c.add("serve.analyze", 1)
			if outcome.Memoized {
				memoized++
				c.add("serve.memoized", 1)
				// Answered before any answer for the key had come back:
				// the request rode the first one's flight.
				if r.startNs < firstDone[req.Key] {
					c.add("serve.flight_riders", 1)
				}
			}
		case req.aspen != nil:
			c.add("serve.aspen", 1)
			if !outcome.Compiled {
				c.add("serve.program_hits", 1)
			}
		}
	}
	// Each distinct analyze key is computed exactly once while the memo
	// holds every key; all other analyze answers must say memoized.
	if want := analyze - len(distinctAnalyze); memoized != want {
		c.op(fmt.Sprintf("whatif: %d memoized analyze answers, want %d", memoized, want))
	} else {
		c.op("")
	}
}
