package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/staging"
)

// Fixed work of one stage round: one seeded file of 8–64 MiB. A round per
// file keeps the grid's in-memory data spaces to one file's copies.
const (
	stageMin = 8 << 20
	stageMax = 64 << 20
)

// stageSize is the seeded file size of round n. Successive rounds step
// through [stageMin, stageMax] along a golden-ratio sequence from a seeded
// start, so the sizes are spread evenly and a run's volume hardly depends on
// the seed; a seeded remainder keeps the last chunk partial.
func stageSize(seed uint64, n int) int {
	rng := stream(seed, "stage-size", n, 0)
	start := stream(seed, "stage-size", 0, 0).Float64()
	_, frac := math.Modf(start + float64(n)*0.6180339887498949)
	return min(stageMax, stageMin+int(frac*(stageMax-stageMin))+rng.IntN(1<<20))
}

// chunkTimer is the staging.Putter of untraced stage rounds: the session
// itself, with each chunk round trip timed for the p50/p99 samples.
type chunkTimer struct {
	putter
	mu  sync.Mutex
	lat []float64
}

func (t *chunkTimer) PutChunk(ctx context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	start := time.Now()
	rep, err := t.putter.PutChunk(ctx, req)
	if err == nil {
		d := time.Since(start)
		t.mu.Lock()
		t.lat = append(t.lat, ms(d))
		t.mu.Unlock()
	}
	return rep, err
}

// sliceWriter collects a download in memory.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// stageRound: one session uploads a seeded file with the staging engine
// Session.Upload runs, submits a job that imports the upload and copies it,
// drives the clock, and downloads the copy, which must equal the upload.
func stageRound(rd *round) error {
	r := rd.r
	rd.beginSetup()
	g, err := newPoolGrid(rd.dir, rd.tr)
	if err != nil {
		return err
	}
	defer g.close()
	rd.deployed(g)
	cred, err := g.user(0)
	if err != nil {
		return err
	}
	s, err := g.session(cred, poolSite)
	if err != nil {
		return err
	}
	rng := stream(r.cfg.seed, "stage", rd.n, 0)
	data := randomBytes(rng, stageSize(r.cfg.seed, rd.n))
	token := fmt.Sprintf("stage-%d-%08x\n", rd.n, rng.Uint32())
	timer := &chunkTimer{putter: s}
	var put staging.Putter = timer
	if rd.tr != nil {
		put = &tracedPutter{sess: s, tr: rd.tr, dn: cred.DN()}
	}

	rd.beginTimed()
	x, err := stageFile(rd, s, put, cred.DN(), data, token)
	if err != nil {
		return err
	}
	rd.endTimed(x.calls, x.up+x.down)
	rd.samples("chunk_up", true, timer.lat)
	if rd.measured() {
		r.mu.Lock()
		r.upBytes += x.up
		r.dnBytes += x.down
		r.upTime += x.upTime
		r.dnTime += x.dnTime
		r.mu.Unlock()
	}
	if err := g.syncJournals(); err != nil {
		return err
	}
	rd.closeLayers(1, 1)
	return nil
}

// transferred is what one staged file moved, and how long its upload and
// download calls took.
type transferred struct {
	calls, up, down int64
	upTime, dnTime  time.Duration
}

// stageFile uploads data, runs the copy job and downloads the copy. A call
// or check that fails counts as a failed operation and ends the transfer.
func stageFile(rd *round, s *client.Session, put staging.Putter, dn core.DN, data []byte, token string) (transferred, error) {
	ctx := context.Background()
	var x transferred
	var handle string
	d, err := rd.call(dn, callKind{name: "upload"}, func() (err error) {
		handle, _, err = staging.Upload(ctx, put, poolVsite, "in.dat", bytes.NewReader(data), s.Transfer)
		return err
	})
	x.calls++
	if err != nil {
		rd.r.fail("round %d: upload: %v", rd.n, err)
		return x, nil
	}
	x.upTime, x.up = d, int64(len(data))

	plan, err := stageJob(rd.n, handle, token)
	if err != nil {
		return x, err
	}
	var id core.JobID
	_, err = rd.call(dn, callKind{name: "submit", serial: true}, func() (err error) {
		id, err = s.Submit(ctx, plan.job)
		return err
	})
	x.calls++
	if err != nil {
		rd.r.fail("round %d: submit %s: %v", rd.n, plan.name, err)
		return x, nil
	}
	rd.driveJobs(1, false)

	var out *ajo.Outcome
	_, err = rd.call(dn, callKind{name: "outcome", serial: true}, func() (err error) {
		out, err = s.Outcome(ctx, id)
		return err
	})
	x.calls++
	if err == nil {
		err = checkOutcome(plan, out)
	}
	rd.check(err)

	buf := &sliceWriter{b: make([]byte, 0, len(data))}
	d, err = rd.call(dn, callKind{name: "download"}, func() error {
		_, err := s.Download(ctx, id, "out.dat", buf)
		return err
	})
	x.calls++
	if err == nil {
		x.dnTime, x.down = d, int64(len(buf.b))
		err = checkDownload(buf.b, data)
	}
	rd.check(err)
	return x, nil
}

// stageJob plans the job of one staged file: import the upload as in.dat,
// copy it to out.dat, and echo a token.
func stageJob(round int, handle, token string) (*jobPlan, error) {
	p := &jobPlan{name: fmt.Sprintf("stage-%d", round), tasks: []taskPlan{{stdout: token}}}
	b := client.NewJob(p.name, core.Target{Usite: poolSite, Vsite: poolVsite})
	p.importID = b.ImportStaged("stage-in", handle, "in.dat")
	p.tasks[0].id = b.Script("copy", "cp in.dat out.dat\necho "+token[:len(token)-1]+"\n",
		resources.Request{Processors: 1, RunTime: 10 * time.Minute})
	b.After(p.importID, p.tasks[0].id)
	job, err := b.Build()
	if err != nil {
		return nil, err
	}
	p.job = job
	return p, nil
}
