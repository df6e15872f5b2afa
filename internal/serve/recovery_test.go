package serve

import (
	"context"
	"testing"
	"time"

	"trajan/internal/feasibility"
	"trajan/internal/journal"
	"trajan/internal/journal/faultfs"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

// recOp is one scripted mutation of the recovery workload.
type recOp struct {
	op   string
	flow *model.FlowConfig
	name string
}

// recoveryScript is a deterministic mixed-churn sequence over the
// capacity-7 tandem: admits to saturation, releases, accepted and
// rejected renegotiations. Rejections must never reach the journal.
func recoveryScript() []recOp {
	var ops []recOp
	admit := func(fc *model.FlowConfig) { ops = append(ops, recOp{op: "admit", flow: fc}) }
	release := func(n string) { ops = append(ops, recOp{op: "release", name: n}) }
	reneg := func(fc *model.FlowConfig) { ops = append(ops, recOp{op: "renegotiate", flow: fc}) }
	for k := 0; k < 6; k++ {
		admit(callFlow(k))
	}
	release("call02")
	admit(callFlow(6))
	admit(callFlow(7))
	admit(callFlow(8)) // rejected: the set is at capacity
	relaxed := callFlow(5)
	relaxed.Deadline = 40
	reneg(relaxed)
	release("call00")
	admit(callFlow(9))
	tight := callFlow(9)
	tight.Deadline = 1
	reneg(tight) // rejected: bound exceeds the tightened deadline
	release("call03")
	release("call04")
	admit(callFlow(10))
	return ops
}

// applyRec drives one mutation straight through the single-writer loop
// (no HTTP), returning the loop's decision.
func applyRec(t *testing.T, s *Server, op recOp) decision {
	t.Helper()
	m := &mutation{op: op.op, name: op.name, ctx: context.Background(), reply: make(chan decision, 1)}
	if op.flow != nil {
		f, err := op.flow.Build()
		if err != nil {
			t.Fatal(err)
		}
		m.flow = f
	}
	if err := s.enqueueMutation(m); err != nil {
		return decision{Err: err}
	}
	select {
	case d := <-m.reply:
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("mutation reply timeout")
		return decision{}
	}
}

// runRecoveryWorkload replays the script against a journaled tenant on
// fs, stopping at the first journal/crash failure, and returns the
// highest snapshot sequence any committed decision acknowledged.
func runRecoveryWorkload(t *testing.T, fs *faultfs.FS) (maxAcked int64) {
	t.Helper()
	r, err := NewRegistry(RegistryConfig{
		Template:          Config{Network: model.UnitDelayNetwork(), CheckpointEvery: 5},
		JournalDir:        "tenants",
		JournalFS:         fs,
		SegmentMaxRecords: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	s, err := r.Server("t1")
	if err != nil {
		return 0 // crashed while opening: nothing was acknowledged
	}
	for _, op := range recoveryScript() {
		d := applyRec(t, s, op)
		if d.Err != nil {
			// The script uses only known flows, so any error here is the
			// injected fault (journal failure / dead FS): stop, like the
			// daemon would.
			return maxAcked
		}
		if d.Outcome != "rejected" && d.Snap != nil && d.Snap.Seq > maxAcked {
			maxAcked = d.Snap.Seq
		}
	}
	return maxAcked
}

// verifyRecovery rehydrates tenant t1 from disk and checks it against
// the cold oracle: per-flow bounds bit-identical to a cold analysis of
// the replayed journal, and subsequent admission decisions identical to
// a cold scoring of each candidate against the same set.
func verifyRecovery(t *testing.T, disk *faultfs.FS, crash, tear int, maxAcked int64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("crash %d tear %d: "+format, append([]any{crash, tear}, args...)...)
	}

	// Oracle side: read the recovered journal directly.
	jl, rec, err := journal.Open("tenants/t1", journal.Options{FS: disk})
	if err != nil {
		fail("oracle recovery: %v\nfiles: %v", err, disk.Files())
	}
	_ = jl.Close()
	netCfg, flowCfgs, err := rec.Replay()
	if err != nil {
		fail("oracle replay: %v", err)
	}
	if rec.LastSeq() < maxAcked {
		fail("acknowledged seq %d lost: journal recovered only through %d", maxAcked, rec.LastSeq())
	}
	net := model.UnitDelayNetwork()
	if rec.Checkpoint != nil {
		net = model.Network{Lmin: netCfg.Lmin, Lmax: netCfg.Lmax}
	}
	var wantBounds []model.Time
	wantNames := make([]string, len(flowCfgs))
	if len(flowCfgs) > 0 {
		flows := make([]*model.Flow, len(flowCfgs))
		for i := range flowCfgs {
			f, berr := flowCfgs[i].Build()
			if berr != nil {
				fail("journaled flow %q does not build: %v", flowCfgs[i].Name, berr)
			}
			flows[i], wantNames[i] = f, f.Name
		}
		fsSet, ferr := model.NewFlowSet(net, flows)
		if ferr != nil {
			fail("replayed set invalid: %v", ferr)
		}
		res, aerr := trajectory.AnalyzeContext(context.Background(), fsSet, trajectory.Options{})
		if aerr != nil {
			fail("cold bounds: %v", aerr)
		}
		wantBounds = res.Bounds
		if ok, _ := feasibility.SetVerdict(flows, wantBounds); !ok {
			fail("replayed set misses a deadline: %v", wantBounds)
		}
	}

	// System side: rehydrate through the registry.
	r, err := NewRegistry(RegistryConfig{
		Template:          Config{Network: model.UnitDelayNetwork(), CheckpointEvery: 5},
		JournalDir:        "tenants",
		JournalFS:         disk,
		SegmentMaxRecords: 4,
	})
	if err != nil {
		fail("registry: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	s, err := r.Server("t1")
	if err != nil {
		fail("rehydrate: %v", err)
	}
	sn := s.Snapshot()
	if rec.HasState() && sn.Seq != rec.LastSeq() {
		fail("rehydrated seq %d, journal says %d", sn.Seq, rec.LastSeq())
	}
	if sn.N() != len(wantNames) {
		fail("rehydrated %d flows, oracle replayed %d", sn.N(), len(wantNames))
	}
	if sn.FS != nil {
		for i, f := range sn.FS.Flows {
			if f.Name != wantNames[i] {
				fail("flow %d: rehydrated %q, oracle %q", i, f.Name, wantNames[i])
			}
			if sn.Bounds[i] != wantBounds[i] {
				fail("flow %q: rehydrated bound %d, cold oracle bound %d", f.Name, sn.Bounds[i], wantBounds[i])
			}
		}
	}

	// Subsequent decisions: the rehydrated warm server must decide as a
	// cold ScoreRoutesCold scoring of each candidate against the
	// replayed set does.
	admitted := make([]*model.Flow, len(flowCfgs))
	for i := range flowCfgs {
		admitted[i], _ = flowCfgs[i].Build()
	}
	for i := 0; i < 3; i++ {
		probe := callFlow(90 + i)
		d := applyRec(t, s, recOp{op: "admit", flow: probe})
		if d.Err != nil {
			fail("post-recovery admit %d: %v", i, d.Err)
		}
		f, _ := probe.Build()
		want := "rejected"
		if sc := feasibility.ScoreRoutesCold(context.Background(), net, trajectory.Options{}, admitted, []*model.Flow{f}); sc[0].Outcome == "feasible" {
			want = "admitted"
			admitted = append(admitted, f)
		}
		if d.Outcome != want {
			fail("post-recovery admit %d: server %q, oracle %q", i, d.Outcome, want)
		}
	}
}

// TestServeCrashRecoveryParity is the acceptance matrix: the journaled
// workload is killed at every mutating filesystem operation, the
// surviving disk (under several torn-tail widths) is rehydrated, and
// the recovered tenant must match the cold oracle bit for bit — bounds
// and subsequent decisions — with no acknowledged decision lost.
func TestServeCrashRecoveryParity(t *testing.T) {
	clean := faultfs.New()
	if acked := runRecoveryWorkload(t, clean); acked == 0 {
		t.Fatal("uncrashed workload acknowledged nothing")
	}
	total := clean.Ops()
	if total < 40 {
		t.Fatalf("workload too small to be interesting: %d fs ops", total)
	}
	tears := []int{0, 5, 1 << 20}
	if testing.Short() {
		tears = []int{5}
	}
	for crash := 1; crash <= total; crash++ {
		fs := faultfs.New()
		fs.CrashAt(crash)
		maxAcked := runRecoveryWorkload(t, fs)
		if !fs.Crashed() {
			t.Fatalf("crash %d: fault never fired", crash)
		}
		for _, tear := range tears {
			verifyRecovery(t, fs.Reopen(tear), crash, tear, maxAcked)
		}
	}
}
