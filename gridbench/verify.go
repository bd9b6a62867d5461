package main

// Output checks. Every expectation is computed from the benchmark's own
// seeded plans and payloads; nothing the program reports is trusted as the
// reference.

import (
	"bytes"
	"fmt"
	"hash/crc64"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/protocol"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// checkSummary compares a Status reply with the plan.
func checkSummary(p *jobPlan, s ajo.Summary) error {
	if s.Status != p.status() {
		return fmt.Errorf("%s: status %s, planned %s", p.name, s.Status, p.status())
	}
	return nil
}

// checkOutcome compares a full outcome tree with the plan: the root status,
// the import, and every task's status and stdout.
func checkOutcome(p *jobPlan, o *ajo.Outcome) error {
	if o == nil {
		return fmt.Errorf("%s: no outcome", p.name)
	}
	if o.Status != p.status() {
		return fmt.Errorf("%s: outcome %s, planned %s", p.name, o.Status, p.status())
	}
	if p.importID != "" {
		imp, ok := o.Find(p.importID)
		if !ok || imp.Status != ajo.StatusSuccessful {
			return fmt.Errorf("%s: import did not succeed", p.name)
		}
	}
	for k, t := range p.tasks {
		got, ok := o.Find(t.id)
		if !ok {
			return fmt.Errorf("%s: no outcome for task %s", p.name, t.id)
		}
		want := ajo.StatusSuccessful
		if p.fail && k == len(p.tasks)-1 {
			want = ajo.StatusFailed
		}
		if got.Status != want {
			return fmt.Errorf("%s: task %s %s, planned %s", p.name, t.id, got.Status, want)
		}
		if string(got.Stdout) != t.stdout {
			return fmt.Errorf("%s: task %s stdout %q, planned %q", p.name, t.id, got.Stdout, t.stdout)
		}
	}
	return nil
}

// checkFetch compares fetched result bytes with the payload the job was
// given.
func checkFetch(p *jobPlan, data []byte) error {
	if !bytes.Equal(data, p.inline) {
		return fmt.Errorf("%s: fetched %d bytes differ from the %d planned", p.name, len(data), len(p.inline))
	}
	return nil
}

// checkBacklog checks one job's event backlog read from cursor 0: sequence
// numbers contiguous from 1, one job, ending in a terminal event whose status
// is the planned one. want is the backlog length an earlier read returned (0
// on the first read); the length must never change once the job is done.
func checkBacklog(id core.JobID, planned ajo.Status, evs []events.Event, want int) error {
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty event backlog", id)
	}
	for i, ev := range evs {
		if ev.Job != id {
			return fmt.Errorf("%s: backlog carries an event of %s", id, ev.Job)
		}
		if ev.Seq != uint64(i+1) {
			return fmt.Errorf("%s: backlog event %d has seq %d (gap or reorder)", id, i, ev.Seq)
		}
		if ev.Terminal != (i == len(evs)-1) {
			return fmt.Errorf("%s: terminal event at %d of %d", id, i, len(evs))
		}
	}
	if last := evs[len(evs)-1]; last.Status != planned {
		return fmt.Errorf("%s: terminal event %s, planned %s", id, last.Status, planned)
	}
	if want != 0 && len(evs) != want {
		return fmt.Errorf("%s: backlog length %d, earlier read %d", id, len(evs), want)
	}
	return nil
}

// checkList compares a List reply with the jobs the session submitted:
// every planned job in its planned state, plus the extra jobs (consigned
// while the list was taken, so still in flight) in any state.
func checkList(jobs []protocol.JobInfo, plans map[core.JobID]*jobPlan, extra map[core.JobID]bool) error {
	if len(jobs) != len(plans)+len(extra) {
		return fmt.Errorf("list returned %d jobs, submitted %d", len(jobs), len(plans)+len(extra))
	}
	for _, j := range jobs {
		if extra[j.Job] {
			continue
		}
		p, ok := plans[j.Job]
		if !ok {
			return fmt.Errorf("list returned unknown job %s", j.Job)
		}
		if j.Status != p.status() {
			return fmt.Errorf("list: %s is %s, planned %s", j.Job, j.Status, p.status())
		}
	}
	return nil
}

// checkDurable is the acked ⇒ never lost property: every acknowledged job
// ID appears exactly once across the consign indexes rebuilt from the
// journals. It returns one error per violating ID.
func checkDurable(acked []core.JobID, recovered []map[string]core.JobID) []error {
	seen := make(map[core.JobID]int)
	for _, m := range recovered {
		for _, id := range m {
			seen[id]++
		}
	}
	var errs []error
	for _, id := range acked {
		if n := seen[id]; n != 1 {
			errs = append(errs, fmt.Errorf("acked job %s found %d times after recovery", id, n))
		}
	}
	return errs
}

// checkDownload compares downloaded bytes with the uploaded payload: a full
// byte compare, then the CRC64 of each side.
func checkDownload(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("download has %d bytes, uploaded %d", len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		return fmt.Errorf("download differs from the upload at byte %d", i)
	}
	if g, w := crc64.Checksum(got, crcTable), crc64.Checksum(want, crcTable); g != w {
		return fmt.Errorf("download crc64 %016x, uploaded %016x", g, w)
	}
	return nil
}
