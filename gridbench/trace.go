package main

// Outside-in layer tracing. A traced round wraps the program only at its
// public seams and adds nothing inside it:
//
//	T  protocol.Transport under each benchmark session (Posts and streams)
//	B  Gateway.SetBackend(wrap(gw.Backend()))     — the njs.Service below a gateway
//	R  pool.ReplicaSet.SetService(name, wrap(n))  — the njs.Service below a pool
//	P  staging.Upload(ctx, wrap(session), …)       — the staging.Putter
//
// Each benchmark session keeps one call in flight, and every seam below the
// gateway sees the caller's DN, so a seam finds the client call it serves by
// DN. That is exact for closed-loop calls; Upload and Download keep a window
// of chunks in flight and are counted, but left out of the self times
// derived by subtraction.

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
)

// maxSpans bounds the spans kept in memory per run.
const maxSpans = 1 << 18

// span is one timed interval at one seam. Start and End are nanoseconds
// since the run began, on the real monotonic clock.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// call is the in-flight client call of one session.
type call struct {
	trace string
	root  uint64
	start int64

	proto, backend, replica atomic.Int64  // ns spent below each seam
	firstWrite, lastRead    atomic.Int64  // stream request write → reply read
	stream                  atomic.Uint64 // span ID of the stream exchange
	posts, bytes            atomic.Int64
	lastProto, lastBackend  atomic.Uint64 // parent span IDs for the next seam down

	// P: chunks in flight, integrated over time.
	mu                   sync.Mutex
	inflight, busy, mark int64
}

// callKind says how a finished call feeds the layer figures.
type callKind struct {
	name   string
	serial bool // one request in flight: self times by subtraction are exact
	split  bool // the session's site is a §5.2 split site
	fed    bool // a consign forwarded by federation
}

// tracer collects the spans and per-layer totals of a traced round.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	calls sync.Map // core.DN → *call
	agg   *layerAgg
	// timed is set during the timed phase: only its calls feed the
	// call-level figures, so they describe the workload's own calls and
	// not seeding or verification.
	timed atomic.Bool
}

func (r *runState) newTracer() *tracer { return &tracer{t0: r.t0, agg: r.layers} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record keeps one span; id 0 draws a fresh span ID. It returns the ID.
func (t *tracer) record(name, trace string, id, parent uint64, start, end int64) uint64 {
	if id == 0 {
		id = t.ids.Add(1)
	}
	a := t.agg
	a.mu.Lock()
	if len(a.spans) < maxSpans {
		a.spans = append(a.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
	} else {
		a.dropped++
	}
	a.mu.Unlock()
	return id
}

// current returns the call the session of dn has in flight, if any.
func (t *tracer) current(dn core.DN) *call {
	if v, ok := t.calls.Load(dn); ok {
		return v.(*call)
	}
	return nil
}

// do runs one client call of the session of dn under a fresh trace and folds
// its seam timings into the layer totals.
func (t *tracer) do(dn core.DN, k callKind, fn func() error) error {
	c := &call{trace: telemetry.NewTraceID(), root: t.ids.Add(1), start: t.now()}
	t.calls.Store(dn, c)
	err := fn()
	end := t.now()
	t.calls.Delete(dn)
	t.record("client."+k.name, c.trace, c.root, 0, c.start, end)
	proto := c.proto.Load()
	if fw := c.firstWrite.Load(); fw != 0 {
		lr := c.lastRead.Load()
		t.record("protocol.stream", c.trace, c.stream.Load(), c.root, fw, lr)
		proto += lr - fw
	}
	if t.timed.Load() {
		t.agg.fold(c, k, end-c.start, proto)
	}
	return err
}

// layerAgg accumulates the per-layer totals of every traced round of a run.
type layerAgg struct {
	mu   sync.Mutex
	sums map[string]float64
	ns   map[string]int64

	consignsByReplica map[string]int64
	dials             atomic.Int64

	spans   []span
	dropped int
}

func newLayerAgg() *layerAgg {
	return &layerAgg{sums: map[string]float64{}, ns: map[string]int64{}, consignsByReplica: map[string]int64{}}
}

func (a *layerAgg) add(key string, v float64) {
	a.mu.Lock()
	a.sums[key] += v
	a.ns[key]++
	a.mu.Unlock()
}

// avg is the mean of key's observations and whether there were any.
func (a *layerAgg) avg(key string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ns[key] == 0 {
		return 0, false
	}
	return a.sums[key] / float64(a.ns[key]), true
}

func (a *layerAgg) sum(key string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sums[key]
}

func (a *layerAgg) count(key string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ns[key]
}

// fold adds one finished call (durations in ns, stored as µs).
func (a *layerAgg) fold(c *call, k callKind, total, proto int64) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	a.add("calls", 1)
	a.add("protocol.posts", float64(c.posts.Load()))
	a.add("protocol.bytes", float64(c.bytes.Load()))
	if k.name == "upload" {
		if total > 0 {
			a.add("staging.inflight", float64(c.busy)/float64(total))
		}
	}
	if !k.serial {
		return
	}
	backend, replica := c.backend.Load(), c.replica.Load()
	a.add("client.self", us(total-proto))
	a.add("protocol.call", us(proto))
	if backend > 0 {
		a.add("gateway.self", us(proto-backend))
		a.add("gateway.backend", us(backend))
		if k.split {
			a.add("gateway.split_relay", us(proto-backend))
		}
		if k.fed {
			a.add("federation.forward", us(total-backend))
		}
	}
	if replica > 0 {
		a.add("pool.self", us(backend-replica))
	}
}

// tracedTransport is seam T: it times every envelope Post and wraps every
// v3 stream so request writes and reply reads are timed and counted.
type tracedTransport struct {
	base protocol.Transport
	tr   *tracer
	dn   core.DN
}

func (t *tracedTransport) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	start := t.tr.now()
	out, err := t.base.Post(ctx, baseURL, body)
	end := t.tr.now()
	if c := t.tr.current(t.dn); c != nil {
		c.proto.Add(end - start)
		c.posts.Add(1)
		c.bytes.Add(int64(len(body) + len(out)))
		c.lastProto.Store(t.tr.record("protocol.post", c.trace, 0, c.root, start, end))
	}
	return out, err
}

func (t *tracedTransport) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := t.base.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	t.tr.agg.dials.Add(1)
	return &tracedConn{Conn: conn, t: t}, nil
}

type tracedConn struct {
	net.Conn
	t *tracedTransport
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if cl := c.t.tr.current(c.t.dn); cl != nil {
		if cl.firstWrite.CompareAndSwap(0, c.t.tr.now()) {
			id := c.t.tr.ids.Add(1)
			cl.stream.Store(id)
			cl.lastProto.Store(id)
		}
		cl.bytes.Add(int64(len(p)))
	}
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if cl := c.t.tr.current(c.t.dn); cl != nil {
			cl.lastRead.Store(c.t.tr.now())
			cl.bytes.Add(int64(n))
		}
	}
	return n, err
}

// seam says which layer a tracedService stands for.
type seam int

const (
	seamBackend seam = 1 << iota // B: directly below a gateway
	seamNJS                      // the service is an NJS (B on a single-NJS site, or R)
	seamReplica                  // R: below a pool
)

// tracedService is seams B and R: it times every njs.Service call that
// serves a client, attributing it to the caller's in-flight call by DN.
type tracedService struct {
	njs.Service
	tr      *tracer
	seam    seam
	replica string
}

func (s *tracedService) time(caller core.DN, method string, bytes int, start int64) {
	end := s.tr.now()
	d := end - start
	name := "gateway.backend." + method
	if s.seam&seamReplica != 0 {
		name = "njs." + method
	}
	if s.seam&seamNJS != 0 {
		s.tr.agg.add("njs."+method, float64(d)/1e3)
		if bytes > 0 {
			s.tr.agg.add("njs."+method+".bytes", float64(bytes))
		}
	}
	c := s.tr.current(caller)
	if c == nil {
		return
	}
	parent := c.lastProto.Load()
	if s.seam&seamBackend != 0 {
		c.backend.Add(d)
		c.lastBackend.Store(s.tr.record(name, c.trace, 0, parent, start, end))
		return
	}
	c.replica.Add(d)
	s.tr.record(name, c.trace, 0, c.lastBackend.Load(), start, end)
}

func (s *tracedService) Consign(ctx context.Context, user core.DN, consignID string, job *ajo.AbstractJob) (core.JobID, error) {
	start := s.tr.now()
	id, err := s.Service.Consign(ctx, user, consignID, job)
	if s.seam&seamReplica != 0 && err == nil {
		s.tr.agg.mu.Lock()
		s.tr.agg.consignsByReplica[s.replica]++
		s.tr.agg.mu.Unlock()
	}
	s.time(user, "Consign", 0, start)
	return id, err
}

func (s *tracedService) Poll(caller core.DN, asServer bool, id core.JobID) (protocol.PollReply, error) {
	start := s.tr.now()
	r, err := s.Service.Poll(caller, asServer, id)
	s.time(caller, "Poll", 0, start)
	return r, err
}

func (s *tracedService) Outcome(caller core.DN, asServer bool, id core.JobID) (*ajo.Outcome, bool, error) {
	start := s.tr.now()
	o, ok, err := s.Service.Outcome(caller, asServer, id)
	s.time(caller, "Outcome", 0, start)
	return o, ok, err
}

func (s *tracedService) List(caller core.DN) ([]protocol.JobInfo, error) {
	start := s.tr.now()
	l, err := s.Service.List(caller)
	s.time(caller, "List", 0, start)
	return l, err
}

func (s *tracedService) Control(caller core.DN, asServer bool, id core.JobID, op ajo.ControlOp) error {
	start := s.tr.now()
	err := s.Service.Control(caller, asServer, id, op)
	s.time(caller, "Control", 0, start)
	return err
}

func (s *tracedService) FetchFileOwned(caller core.DN, asServer bool, id core.JobID, file string, offset, limit int64) (protocol.TransferReply, error) {
	start := s.tr.now()
	r, err := s.Service.FetchFileOwned(caller, asServer, id, file, offset, limit)
	s.time(caller, "FetchFileOwned", len(r.Data), start)
	return r, err
}

func (s *tracedService) StageOpen(caller core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	start := s.tr.now()
	r, err := s.Service.StageOpen(caller, asServer, req)
	s.time(caller, "StageOpen", 0, start)
	return r, err
}

func (s *tracedService) StageChunk(caller core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	start := s.tr.now()
	r, err := s.Service.StageChunk(caller, asServer, req)
	s.time(caller, "StageChunk", len(req.Data), start)
	return r, err
}

func (s *tracedService) StageCommit(caller core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	start := s.tr.now()
	r, err := s.Service.StageCommit(caller, asServer, req)
	s.time(caller, "StageCommit", 0, start)
	return r, err
}

func (s *tracedService) Events(caller core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	start := s.tr.now()
	r, err := s.Service.Events(caller, asServer, req)
	s.time(caller, "Events", 0, start)
	return r, err
}

// The pool reconciles a swapped-in service through these optional
// surfaces; every other njs.Service method passes through untimed.
func (s *tracedService) ConsignedJobs() map[string]core.JobID {
	if r, ok := s.Service.(interface{ ConsignedJobs() map[string]core.JobID }); ok {
		return r.ConsignedJobs()
	}
	return nil
}

func (s *tracedService) StagedHandles() []string {
	if r, ok := s.Service.(interface{ StagedHandles() []string }); ok {
		return r.StagedHandles()
	}
	return nil
}

// tracedPutter is seam P: the staging.Putter that Session.Upload runs,
// timing each chunk round trip and integrating the chunks in flight.
type tracedPutter struct {
	sess putter
	tr   *tracer
	dn   core.DN
}

// putter is the staging.Putter surface of client.Session.
type putter interface {
	PutOpen(ctx context.Context, req protocol.PutOpenRequest) (protocol.PutOpenReply, error)
	PutChunk(ctx context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error)
	PutCommit(ctx context.Context, req protocol.PutCommitRequest) (protocol.PutCommitReply, error)
}

func (p *tracedPutter) PutOpen(ctx context.Context, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	return p.sess.PutOpen(ctx, req)
}

func (p *tracedPutter) PutCommit(ctx context.Context, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	return p.sess.PutCommit(ctx, req)
}

func (p *tracedPutter) PutChunk(ctx context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	c := p.tr.current(p.dn)
	start := p.tr.now()
	if c != nil {
		p.inflight(c, start, +1)
	}
	r, err := p.sess.PutChunk(ctx, req)
	end := p.tr.now()
	if c != nil {
		p.inflight(c, end, -1)
		p.tr.record("staging.chunk", c.trace, 0, c.root, start, end)
	}
	p.tr.agg.add("staging.chunk", float64(end-start)/1e3)
	if err != nil {
		p.tr.agg.add("staging.retries", 1)
	}
	return r, err
}

// inflight integrates the number of chunks in flight over time.
func (p *tracedPutter) inflight(c *call, now int64, delta int64) {
	c.mu.Lock()
	c.busy += c.inflight * (now - c.mark)
	c.mark = now
	c.inflight += delta
	c.mu.Unlock()
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
