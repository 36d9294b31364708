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
	"os"
	"sync"
	"time"

	"surw/internal/campaign"
	"surw/internal/obs"
	"surw/internal/remote"
	"surw/internal/runner"
)

// timedStore is a runner.SessionStore decorator that times every call into
// the campaign run-store and passes results through unchanged.
type timedStore struct {
	inner runner.SessionStore

	mu      sync.Mutex
	stores  []time.Duration
	lookups []time.Duration
}

func (s *timedStore) Lookup(k runner.SessionKey) (*runner.Session, bool) {
	t0 := time.Now()
	sess, ok := s.inner.Lookup(k)
	d := time.Since(t0)
	s.mu.Lock()
	s.lookups = append(s.lookups, d)
	s.mu.Unlock()
	return sess, ok
}

func (s *timedStore) Store(k runner.SessionKey, sess *runner.Session) (*runner.Session, error) {
	t0 := time.Now()
	out, err := s.inner.Store(k, sess)
	d := time.Since(t0)
	s.mu.Lock()
	s.stores = append(s.stores, d)
	s.mu.Unlock()
	return out, err
}

// grant is a lease a worker received, with the time its response arrived.
type grant struct {
	at    time.Time
	lease *remote.Lease
}

// accepted is a lease whose submit the coordinator accepted.
type accepted struct {
	lease *remote.Lease
	dur   time.Duration // lease response → submit accepted
}

// rpcLog is what the fleet's transport wrappers record.
type rpcLog struct {
	mu         sync.Mutex
	granted    map[string]grant
	accepted   []accepted
	rpc        map[string][]time.Duration // by endpoint path
	attempts   int
	failures   int
	firstGrant chan struct{} // closed at the first grant
	firstAt    time.Time     // when the first grant arrived; set before firstGrant closes
	once       sync.Once
	// onAccept runs after each accepted submit with the running total of
	// accepted sessions; it must not block.
	onAccept func(sessions int)
	sessions int
}

func newRPCLog() *rpcLog {
	return &rpcLog{
		granted:    make(map[string]grant),
		rpc:        make(map[string][]time.Duration),
		firstGrant: make(chan struct{}),
	}
}

// rpcTransport is an http.RoundTripper set as a remote.Worker's client
// transport. It times each RPC and the lease-to-accept interval, reading
// only copies of the bodies it inspects, so requests and responses reach
// their readers unchanged.
type rpcTransport struct {
	base http.RoundTripper
	log  *rpcLog
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	var leaseID string
	if path == remote.PathResult && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var rr struct {
			LeaseID string `json:"lease_id"`
		}
		// A body that does not parse is the coordinator's to reject; it
		// is forwarded as is and its lease simply is not timed.
		_ = json.Unmarshal(body, &rr)
		leaseID = rr.LeaseID
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	if err != nil || resp.StatusCode >= 500 {
		// Calls cut short by the benchmark's own stop are not retries.
		if req.Context().Err() == nil {
			t.log.record(path, d, false)
		}
		return resp, err
	}
	now := time.Now()
	switch {
	case path == remote.PathLease && resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr remote.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Lease != nil {
			t.log.grant(lr.Lease, now)
		}
	case path == remote.PathResult && resp.StatusCode == http.StatusOK:
		t.log.accept(leaseID, now)
	}
	t.log.record(path, d, true)
	return resp, nil
}

func (l *rpcLog) record(path string, d time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts++
	if !ok {
		l.failures++
		return
	}
	l.rpc[path] = append(l.rpc[path], d)
}

func (l *rpcLog) grant(le *remote.Lease, at time.Time) {
	l.mu.Lock()
	l.granted[le.ID] = grant{at: at, lease: le}
	l.mu.Unlock()
	l.once.Do(func() {
		l.firstAt = at
		close(l.firstGrant)
	})
}

func (l *rpcLog) accept(leaseID string, at time.Time) {
	l.mu.Lock()
	g, ok := l.granted[leaseID]
	if !ok {
		l.mu.Unlock()
		return
	}
	delete(l.granted, leaseID)
	l.accepted = append(l.accepted, accepted{lease: g.lease, dur: at.Sub(g.at)})
	l.sessions += len(g.lease.Sessions)
	n, cb := l.sessions, l.onAccept
	l.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}

// fleet is an in-process loopback deployment: a coordinator with tracing
// on over a timed campaign store in a temporary directory, served over
// HTTP on 127.0.0.1, and one remote.Worker per dispatch slot, each with
// the timing transport and its own obs.Metrics — surwbench -coordinate
// -fleet-trace with surwworker -metrics workers.
type fleet struct {
	w       *workload
	dir     string
	store   *campaign.Store
	timed   *timedStore // the coordinator's view of store
	coord   *remote.Coordinator
	srv     *http.Server
	served  chan struct{} // closed when srv.Serve has returned
	log     *rpcLog
	keys    map[runner.SessionKey]unit
	slots   int
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	stopped time.Time
}

// startFleet brings a fleet up over the plan and returns once the first
// lease carrying a batch has reached a worker: the first session is
// dispatched at fl.log.firstAt. (The caller may wake well after that:
// with every P running a session it waits for one to block.)
func startFleet(w *workload, plan []unit, slots int, tmpRoot string) (*fleet, error) {
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, fmt.Errorf("fleet store dir: %w", err)
	}
	fl := &fleet{w: w, dir: dir, slots: slots, log: newRPCLog(), keys: make(map[runner.SessionKey]unit, len(plan))}
	if fl.store, err = campaign.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fl.timed = &timedStore{inner: fl.store}
	keys := make([]runner.SessionKey, len(plan))
	for i, u := range plan {
		keys[i] = w.cells[u.cell].key(u.session)
		fl.keys[keys[i]] = u
	}
	fl.coord = remote.NewCoordinator(fl.timed, keys, remote.CoordinatorOptions{BatchSize: 1, Tracing: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.close()
		return nil, fmt.Errorf("fleet listen: %w", err)
	}
	fl.srv = &http.Server{Handler: fl.coord}
	fl.served = make(chan struct{})
	go func() {
		defer close(fl.served)
		if err := fl.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fl.fail(err)
		}
	}()
	targets := make(map[string]runner.Target)
	for _, c := range w.cells {
		targets[c.tgt.Name] = c.tgt
	}
	ctx, cancel := context.WithCancel(bgCtx)
	fl.cancel = cancel
	fl.wg.Add(slots)
	for i := 0; i < slots; i++ {
		base := http.DefaultTransport.(*http.Transport).Clone()
		wk := &remote.Worker{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("worker-%d", i),
			Resolve: func(name string) (runner.Target, bool) {
				t, ok := targets[name]
				return t, ok
			},
			Client:  &http.Client{Timeout: 30 * time.Second, Transport: &rpcTransport{base: base, log: fl.log}},
			Metrics: obs.NewMetrics(),
		}
		go func() {
			defer fl.wg.Done()
			defer base.CloseIdleConnections()
			if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
				fl.fail(fmt.Errorf("%s: %w", wk.Name, err))
				cancel()
			}
		}()
	}
	select {
	case <-fl.log.firstGrant:
		return fl, nil
	case <-time.After(30 * time.Second):
		fl.stop()
		fl.close()
		return nil, errors.New("fleet: no lease granted within 30s")
	}
}

func (fl *fleet) fail(err error) {
	fl.mu.Lock()
	fl.errs = append(fl.errs, err)
	fl.mu.Unlock()
}

// stop cancels the workers and waits until every one has returned.
func (fl *fleet) stop() {
	fl.cancel()
	fl.wg.Wait()
}

// close shuts the server and the store down and removes the store.
func (fl *fleet) close() {
	if fl.srv != nil {
		fl.srv.Close()
		<-fl.served
	}
	if fl.store != nil {
		fl.store.Close()
	}
	os.RemoveAll(fl.dir)
}

// measure runs the fleet closed-loop until stopped() holds and at least
// minUnits sessions were accepted (or the plan is exhausted), then stops
// the workers and audits the store against the committed digests.
func (fl *fleet) measure(start time.Time, minUnits int, stopped func() bool) *phase {
	cpu0, mallocs0 := cpuTime(), readMallocs()
	var once sync.Once
	finish := func() {
		once.Do(func() {
			fl.mu.Lock()
			fl.stopped = time.Now()
			fl.mu.Unlock()
			fl.cancel()
		})
	}
	fl.log.mu.Lock()
	fl.log.onAccept = func(n int) {
		if n >= minUnits && stopped() {
			finish()
		}
	}
	fl.log.mu.Unlock()
	fl.wg.Wait()
	finish()
	p := &phase{slots: fl.slots, cpu: cpuTime() - cpu0, wall: fl.stopped.Sub(start)}
	p.mallocs = readMallocs() - mallocs0

	fl.log.mu.Lock()
	acc := append([]accepted(nil), fl.log.accepted...)
	fl.log.mu.Unlock()
	for _, a := range acc {
		for _, s := range a.lease.Sessions {
			k := runner.SessionKey{
				Target: a.lease.Target, Algorithm: a.lease.Algorithm, Limit: a.lease.Limit,
				Seed: a.lease.Seed, Session: s, StopAtFirstBug: a.lease.StopAtFirstBug,
				Coverage: a.lease.Coverage, CoverageEvery: a.lease.CoverageEvery, ProfileRuns: a.lease.ProfileRuns,
			}
			var o outcome
			u, planned := fl.keys[k]
			sess, ok := fl.store.Lookup(k)
			switch {
			case !planned:
				o.err = fmt.Errorf("lease %s: session %v is not in the plan", a.lease.ID, k)
			case !ok:
				o.err = fmt.Errorf("lease %s: accepted session %s/%s #%d is missing from the store", a.lease.ID, k.Target, k.Algorithm, s)
			default:
				o.schedules, o.bugs = sess.Schedules, len(sess.Bugs)
				o.ok = fl.w.check(u, sess)
				if !o.ok {
					o.err = fmt.Errorf("%s/%s session %d: result differs from the committed digest", k.Target, k.Algorithm, s)
				}
			}
			p.outcomes = append(p.outcomes, o)
		}
	}
	fl.mu.Lock()
	for _, err := range fl.errs {
		p.outcomes = append(p.outcomes, outcome{err: err})
	}
	fl.mu.Unlock()
	return p
}
