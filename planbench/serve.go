package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"github.com/routeplanning/mamorl/internal/tmplar"
)

// clients is the closed-loop client count of the serving workloads: two
// keep-alive connections, one per client, matching the two cores the
// benchmark was sized on.
const clients = 2

// serverOptions configures the server as tmplard's default flags do, with
// the request logger writing to io.Discard.
func serverOptions() tmplar.Options {
	return tmplar.Options{
		PlanTimeout:    30 * time.Second,
		MaxGridBytes:   32 << 20,
		MaxPlanBytes:   1 << 20,
		TraceBuffer:    256,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		SampleInterval: 2 * time.Second,
		TrainWorkers:   1,
		ProfileWindow:  5 * time.Second,
	}
}

// liveServer is an in-process tmplar server on a loopback listener, with
// the metrics sampler ticking as in tmplard.
type liveServer struct {
	srv         *tmplar.Server
	hs          *http.Server
	url         string
	served      chan error
	stopSampler context.CancelFunc
	samplerDone chan struct{}
}

func startServer(srv *tmplar.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv: srv,
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      srv.PlanTimeout() + 15*time.Second,
			IdleTimeout:       2 * time.Minute,
			ErrorLog:          log.New(os.Stderr, "planbench: http: ", 0),
		},
		url:         "http://" + ln.Addr().String(),
		served:      make(chan error, 1),
		samplerDone: make(chan struct{}),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	ls.stopSampler = cancel
	go func() {
		defer close(ls.samplerDone)
		srv.Sampler().Run(ctx)
	}()
	return ls, nil
}

// close shuts the listener down, waits for the serve and sampler
// goroutines, and releases the server.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.stopSampler()
	<-ls.samplerDone
	ls.srv.Close()
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole response into dst's storage.
func post(hc *http.Client, url string, body, dst []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, dst[:0], err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(dst[:0])
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// servingRun is one serving workload in flight.
type servingRun struct {
	load    *servingLoad
	clock   *hostClock
	ls      *liveServer
	clients []*http.Client
}

// setUp is one set-up: its server, the raw time of each phase, and the
// first plans' responses, which are checked later, outside the timing.
type setUp struct {
	ls     *liveServer
	phase  [3]time.Duration // server, upload, first plans
	status []int
	bodies [][]byte
}

// setUp builds a server, uploads every grid and sends the first plan per
// tenant: the set-up a serving workload pays before its first timed plan.
func (r *servingRun) setUp(su *setUp) error {
	t0 := time.Now()
	srv, err := tmplar.NewServerOpts(1, serverOptions())
	if err != nil {
		return err
	}
	t1 := time.Now()
	if su.ls, err = startServer(srv); err != nil {
		return err
	}
	hc := r.clients[0]
	for _, tn := range r.load.tenants {
		status, body, err := post(hc, su.ls.url+"/api/grids", tn.body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("upload %s: status %d: %s", tn.grid.Name(), status, body)
		}
	}
	t2 := time.Now()
	su.status = make([]int, len(r.load.first))
	su.bodies = make([][]byte, len(r.load.first))
	for i, q := range r.load.first {
		if su.status[i], su.bodies[i], err = post(hc, su.ls.url+"/api/plan", q.body, nil); err != nil {
			return err
		}
	}
	su.phase = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), time.Since(t2)}
	return nil
}

// setUps repeats the set-up, checks each one's first plans and closes its
// server outside the timing, except the last, which serves the run.
func (r *servingRun) setUps(out *report) error {
	sus := make([]setUp, setupReps)
	w, err := r.clock.repeat(setupReps, func(i int) error { return r.setUp(&sus[i]) }, func(i int) error {
		su := &sus[i]
		for j := range r.load.first {
			if o := r.check(&r.load.first[j], su.status[j], su.bodies[j]); !o.ok {
				return fmt.Errorf("first plan on %s: %w", r.load.tenants[r.load.first[j].tenant].grid.Name(), o.err)
			}
		}
		if i == setupReps-1 {
			r.ls, su.ls = su.ls, nil
			return nil
		}
		err := su.ls.close()
		su.ls = nil
		r.clients[0].CloseIdleConnections()
		// Each set-up starts from a clean heap, as in a fresh process,
		// rather than paying for the previous one's garbage.
		runtime.GC()
		return err
	})
	for i := range sus {
		if sus[i].ls != nil {
			_ = sus[i].ls.close() // only left open when set-up failed
		}
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.setup(w)
	if out.traced {
		for p, name := range []string{"setup.server_s", "setup.upload_s", "setup.warm_s"} {
			v, raw := make([]float64, len(sus)), make([]float64, len(sus))
			for i, su := range sus {
				raw[i] = su.phase[p].Seconds()
				v[i] = raw[i] * w.factor[i]
			}
			out.timing(out.PerLayer, name, "s", median(v), median(raw))
		}
	}
	return nil
}

func (r *servingRun) check(q *request, status int, body []byte) outcome {
	return checkPlan(&q.plan, r.load.tenants[q.tenant].grid, status, body)
}

// send runs reqs through the closed loop over HTTP and checks every plan.
func (r *servingRun) send(reqs []request) (window, []outcome, error) {
	outs := make([]outcome, len(reqs))
	status := make([]int, len(reqs))
	// One body buffer per request slot of a segment, reused across
	// segments; segments start at multiples of segLen.
	seg := r.load.segLen
	bodies := make([][]byte, seg)
	do := func(cl, i int) {
		var err error
		status[i], bodies[i%seg], err = post(r.clients[cl], r.ls.url+"/api/plan", reqs[i].body, bodies[i%seg])
		if err != nil {
			outs[i].err = err
		}
	}
	settle := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if outs[i].err == nil {
				outs[i] = r.check(&reqs[i], status[i], bodies[i%seg])
			}
		}
		return nil
	}
	w, err := r.clock.closedLoop(len(reqs), seg, clients, do, settle)
	return w, outs, err
}

// runServing runs a serving workload: set-up (repeated, the last server
// kept), warm-up, the timed window and, with trace, the traced replay.
func runServing(workload string, seed int64, seconds int, traced bool, out *report) error {
	rate := hotRate
	if workload == "plan-tenants" {
		rate = tenantsRate
	}
	load, err := newServingLoad(workload, seed, rate*seconds)
	if err != nil {
		return err
	}
	// Generating the inputs leaves garbage the program did not make;
	// collect it before the first timing.
	runtime.GC()
	r := &servingRun{load: load, clock: out.clock}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, newClient())
	}
	defer func() {
		for _, hc := range r.clients {
			hc.CloseIdleConnections()
		}
	}()

	if err := r.setUps(out); err != nil {
		return err
	}
	defer func() {
		if err := r.ls.close(); err != nil {
			fmt.Fprintln(os.Stderr, "planbench: server shutdown:", err)
		}
	}()

	if _, outs, err := r.send(load.warmup); err != nil {
		return err
	} else if q := foldQuality(outs); q.ok != q.attempted {
		return firstFailure("warm-up", outs)
	}

	rt0 := readRuntime()
	w, outs, err := r.send(load.reqs)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	q := foldQuality(outs)
	completed := 0
	for _, o := range outs {
		if o.status == http.StatusOK {
			completed++
		}
	}
	out.plans(w, q, completed)
	out.runtime(rt0, rt1, q.attempted)
	if q.ok != q.attempted {
		out.fail(firstFailure("timed window", outs))
		return nil
	}
	if !traced {
		return nil
	}
	return traceServing(r, w, outs, out)
}

func firstFailure(phase string, outs []outcome) error {
	for i, o := range outs {
		if !o.ok {
			return fmt.Errorf("%s: plan %d: %w", phase, i, o.err)
		}
	}
	return nil
}

// runtimeSample is the Go runtime's allocation and CPU accounting at one
// instant.
type runtimeSample struct {
	totalAlloc uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := cpuClasses()
	return runtimeSample{totalAlloc: ms.TotalAlloc, gcCPU: gc, totalCPU: total}
}
