package pcie

import (
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// deadDevice models a wedged completer: it accepts writes but never
// returns read data, so a timed read against it can only resolve through
// the requester's completion timeout.
type deadDevice struct{}

func (deadDevice) PCIeName() string                  { return "dead" }
func (deadDevice) BARSize() uint64                   { return 1 << 12 }
func (deadDevice) MMIORead(uint64, []byte) bool      { return false }
func (deadDevice) MMIOWrite(offset uint64, d []byte) {}

// TestReadFromDeadDeviceTimesOut is the regression test for the latent
// data-plane deadlock: before completion timeouts, a device that never
// completed a timed read hung the simulation forever. Now the read must
// settle with a CplTimedOut error completion at exactly the configured
// budget: the base timeout plus the transaction's own round-trip wire
// time (segmented completions reset the timer in real hardware, so the
// budget scales with the transfer size).
func TestReadFromDeadDeviceTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())
	dead := fab.Attach(deadDevice{}, Gen3x8())

	var got *Completion
	var at sim.Time
	ps.Read(dead.Base(), 64, func(c Completion) { got, at = &c, eng.Now() })
	eng.Run() // must terminate — this hung before the timeout existed
	if got == nil {
		t.Fatal("read never completed")
	}
	if got.Status != CplTimedOut || got.Data != nil {
		t.Fatalf("completion = %+v, want CplTimedOut with no data", *got)
	}
	want := readBudget(ps.cfg, 64)
	if at != want {
		t.Fatalf("timed out at %v, want %v", at, want)
	}
	if fab.Errs.CplTimeouts != 1 {
		t.Fatalf("CplTimeouts = %d, want 1", fab.Errs.CplTimeouts)
	}
}

// TestReadUnmappedAddressUR checks the data plane answers a DMA read to
// an unmapped address with an Unsupported-Request completion instead of
// panicking (the control plane keeps the panic — see TestFabricAddressing).
func TestReadUnmappedAddressUR(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())

	var got *Completion
	var at sim.Time
	ps.Read(0x10, 64, func(c Completion) { got, at = &c, eng.Now() })
	eng.Run()
	if got == nil {
		t.Fatal("read never completed")
	}
	if got.Status != CplUR {
		t.Fatalf("status = %d, want unsupported-request", got.Status)
	}
	if fab.Errs.UR != 1 {
		t.Fatalf("UR count = %d, want 1", fab.Errs.UR)
	}
	// The UR resolved well before the completion timeout.
	if at >= sim.Time(ps.cfg.CplTimeout) {
		t.Fatalf("UR took %v, should beat the %v timeout", at, ps.cfg.CplTimeout)
	}
}

// TestWriteUnmappedAddressCounted: posted writes have no completion, so
// an unmapped write is silently dropped but must be counted.
func TestWriteUnmappedAddressCounted(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())

	called := false
	ps.Write(0x10, []byte{1, 2, 3, 4}, func() { called = true })
	eng.Run()
	if called {
		t.Fatal("done fired for an unmapped posted write")
	}
	if fab.Errs.UR != 1 {
		t.Fatalf("UR count = %d, want 1", fab.Errs.UR)
	}
}

// TestSpanPastBAREndIsUR: a DMA is routed by its whole span, not its first
// byte. A transfer whose last byte is the target BAR's last byte goes
// through; one byte more is an Unsupported Request in both directions —
// CplUR for the read, a counted drop for the posted write — where the
// first-byte lookup used to hand the overrun to the device and panic in
// hostmem. Owned write buffers go back to the pool on either outcome.
func TestSpanPastBAREndIsUR(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name string
		off  uint64
		n    int
		ok   bool
	}{
		{"last byte inside", size - 64, 64, true},
		{"one byte over", size - 63, 64, false},
		{"starts on the last byte", size - 1, 1, true},
		{"straddles by most of its length", size - 8, 64, false},
	} {
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		ps := fab.Attach(hostmem.New("src", size), Gen3x8())
		dst := hostmem.New("dst", size)
		pd := fab.Attach(dst, Gen3x8())
		fab.Attach(hostmem.New("above", size), Gen3x8()) // the overrun lands in a mapped neighbour, not a hole

		var got *Completion
		ps.Read(pd.Base()+tc.off, tc.n, func(c Completion) { got = &c })
		wrote := false
		payload := eng.Bufs().Get(tc.n)
		for i := range payload {
			payload[i] = 0xa5
		}
		ps.WriteOwned(pd.Base()+tc.off, payload, payload, func() { wrote = true })
		eng.Run()

		if got == nil {
			t.Fatalf("%s: read never completed", tc.name)
		}
		wantUR := int64(2)
		if tc.ok {
			wantUR = 0
		}
		if got.OK() != tc.ok || (!tc.ok && got.Status != CplUR) || wrote != tc.ok || fab.Errs.UR != wantUR {
			t.Errorf("%s: read status %v, write delivered %v, UR count %d; want ok=%v", tc.name, got.Status, wrote, fab.Errs.UR, tc.ok)
		}
		if tc.ok && (len(got.Data) != tc.n || dst.ReadAt(tc.off, 1)[0] != 0xa5) {
			t.Errorf("%s: read %d bytes, byte at %#x is %#x", tc.name, len(got.Data), tc.off, dst.ReadAt(tc.off, 1)[0])
		}
		if out := eng.Bufs().Outstanding(); out != 0 {
			t.Errorf("%s: %d pooled buffers outstanding", tc.name, out)
		}
	}
}

// TestFaultHooksDropAndPoison exercises the injection hooks directly:
// dropped TLPs charge no wire bytes (keeping the byte ledger exact),
// poisoned writes charge bytes but never reach the device, and
// poisoned completions surface as CplPoisoned.
func TestFaultHooksDropAndPoison(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	a := hostmem.New("a", 1<<20)
	b := hostmem.New("b", 1<<20)
	pa := fab.Attach(a, Gen3x8())
	pb := fab.Attach(b, Gen3x8())
	addr := fab.AddrOf(b, 0x100)

	drop := false
	fab.SetFaults(&FaultHooks{
		Drop: func(p *Port, typ telemetry.TLPType) bool { return drop && typ == telemetry.MemWr },
	})
	drop = true
	done := false
	pa.Write(addr, []byte{1, 2, 3}, func() { done = true })
	eng.Run()
	if done || pa.UpBytes != 0 || pb.DownBytes != 0 {
		t.Fatalf("dropped write leaked: done=%v up=%d down=%d", done, pa.UpBytes, pb.DownBytes)
	}
	if fab.Errs.DroppedTLPs != 1 {
		t.Fatalf("DroppedTLPs = %d", fab.Errs.DroppedTLPs)
	}
	drop = false

	fab.SetFaults(&FaultHooks{
		Corrupt: func(p *Port, typ telemetry.TLPType) bool { return typ == telemetry.MemWr },
	})
	pa.Write(addr, []byte{9, 9, 9}, func() { t.Error("poisoned write completed") })
	eng.Run()
	if pa.UpBytes == 0 || pb.DownBytes == 0 {
		t.Fatal("poisoned write should still charge wire bytes")
	}
	if got := b.ReadAt(0x100, 3); got[0] == 9 {
		t.Fatal("poisoned payload reached the device")
	}
	if fab.Errs.Poisoned != 1 {
		t.Fatalf("Poisoned = %d", fab.Errs.Poisoned)
	}

	b.WriteAt(0x100, []byte{5, 6, 7, 8})
	fab.SetFaults(&FaultHooks{
		Corrupt: func(p *Port, typ telemetry.TLPType) bool { return typ == telemetry.CplD },
	})
	var got *Completion
	pa.Read(addr, 4, func(c Completion) { got = &c })
	eng.Run()
	if got == nil || got.Status != CplPoisoned || got.Data != nil {
		t.Fatalf("poisoned read completion = %+v", got)
	}

	// Link down: reads time out, writes vanish.
	fab.SetFaults(&FaultHooks{Down: func(p *Port) bool { return p == pb }})
	var down *Completion
	pa.Read(addr, 4, func(c Completion) { down = &c })
	eng.Run()
	if down == nil || down.Status != CplTimedOut {
		t.Fatalf("read through downed link = %+v", down)
	}
	fab.SetFaults(nil)
	var ok *Completion
	pa.Read(addr, 4, func(c Completion) { ok = &c })
	eng.Run()
	if ok == nil || !ok.OK() {
		t.Fatalf("recovered read = %+v", ok)
	}
}

// readBudget is the completion budget Port.Read grants a size-byte read:
// the tests below hold the timeout to exactly t0+budget.
func readBudget(cfg LinkConfig, size int) sim.Duration {
	return cfg.CplTimeout +
		2*cfg.EffectiveRate().Serialize(cfg.ReadReqWireBytes(size)+cfg.CompletionWireBytes(size)) +
		4*cfg.PropDelay
}

// TestReadTimeoutOnlyWhereItCanFire covers every way a read can fail to
// settle in time. The timeout is no longer pushed by every Read, so each
// path that loses the request or the completion has to schedule it
// itself: the requester must still see CplTimedOut exactly once, at
// exactly t0+budget, and the fired timeout must be the last thing the
// transaction leaves on the heap.
func TestReadTimeoutOnlyWhereItCanFire(t *testing.T) {
	const t0 = 3 * sim.Microsecond
	cases := []struct {
		name   string
		dead   bool // target is a non-responding completer
		faults func(target *Port) *FaultHooks
		drops  int64
	}{
		{"dropped request", false, func(*Port) *FaultHooks {
			return &FaultHooks{Drop: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.MemRd }}
		}, 1},
		{"dropped completion", false, func(*Port) *FaultHooks {
			return &FaultHooks{Drop: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.CplD }}
		}, 1},
		{"non-responding device", true, func(*Port) *FaultHooks { return nil }, 0},
		{"link down at the switch", false, func(target *Port) *FaultHooks {
			return &FaultHooks{Down: func(p *Port) bool { return p == target }}
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fab := NewFabric(eng)
			ps := fab.Attach(hostmem.New("src", 1<<20), Gen3x8())
			var target *Port
			if c.dead {
				target = fab.Attach(deadDevice{}, Gen3x8())
			} else {
				target = fab.Attach(hostmem.New("dst", 1<<20), Gen3x8())
			}
			fab.SetFaults(c.faults(target))

			var calls int
			var got Completion
			var at sim.Time
			eng.After(t0, func() {
				ps.Read(target.Base(), 64, func(c Completion) { calls++; got, at = c, eng.Now() })
			})
			eng.Run()
			if calls != 1 {
				t.Fatalf("done ran %d times, want exactly once", calls)
			}
			if got.Status != CplTimedOut || got.Data != nil {
				t.Fatalf("completion = %+v, want CplTimedOut with no data", got)
			}
			if want := t0 + readBudget(ps.cfg, 64); at != want {
				t.Fatalf("timed out at %v, want %v", at, want)
			}
			if fab.Errs.CplTimeouts != 1 || fab.Errs.DroppedTLPs != c.drops {
				t.Fatalf("errors = %+v, want 1 timeout and %d drops", fab.Errs, c.drops)
			}
			if eng.Now() != at || eng.Pending() != 0 {
				t.Fatalf("engine ran on to %v with %d events pending after the timeout at %v",
					eng.Now(), eng.Pending(), at)
			}
		})
	}
}

// TestTimeoutAmongSameInstantEvents pins what the deferred timeout does
// and does not preserve. The instant of CplTimedOut is t0+budget whatever
// else is queued for that picosecond. Its place among unrelated events at
// that instant follows scheduling order, and the timeout is scheduled at
// the point of loss (here the completer, ~300 ns in), not at t0: an event
// queued for the deadline before the loss runs ahead of it, one queued
// after the loss runs behind it.
func TestTimeoutAmongSameInstantEvents(t *testing.T) {
	const t0 = 3 * sim.Microsecond
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	ps := fab.Attach(hostmem.New("src", 1<<20), Gen3x8())
	target := fab.Attach(hostmem.New("dst", 1<<20), Gen3x8())
	fab.SetFaults(&FaultHooks{Drop: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.CplD }})
	deadline := t0 + readBudget(ps.cfg, 64)

	var order []string
	var at sim.Time
	mark := func(s string) func() { return func() { order = append(order, s) } }
	eng.After(t0, func() {
		ps.Read(target.Base(), 64, func(c Completion) {
			if c.Status != CplTimedOut {
				t.Errorf("completion = %+v, want CplTimedOut", c)
			}
			at = eng.Now()
			mark("timeout")()
		})
		eng.After(deadline-eng.Now(), mark("queued before the loss"))
	})
	eng.After(t0+sim.Microsecond, func() {
		if fab.Errs.DroppedTLPs != 1 {
			t.Errorf("completion not yet dropped 1 us in: %+v", fab.Errs)
		}
		eng.After(deadline-eng.Now(), mark("queued after the loss"))
	})
	eng.Run()

	if at != deadline {
		t.Fatalf("timed out at %v, want %v", at, deadline)
	}
	want := []string{"queued before the loss", "timeout", "queued after the loss"}
	if len(order) != len(want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %q, want %q", order, want)
		}
	}
}

// TestLateCompletionLosesToTimeout queues a completion behind a saturated
// link so that it reaches the requester after the deadline. The crossing
// that ends past the deadline schedules the timeout: the requester sees
// CplTimedOut at exactly t0+budget, the data that arrives later is
// discarded, and the completion still pays for every link it occupied.
func TestLateCompletionLosesToTimeout(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	cfg := Gen3x8()
	cfg.CplTimeout = sim.Microsecond
	a := hostmem.New("a", 1<<20)
	b := hostmem.New("b", 1<<20)
	pa := fab.Attach(a, cfg)
	pb := fab.Attach(b, cfg)

	// 32 KiB of posted writes from b occupy a's down link for ~4.6 us —
	// the completion of a's read queues behind them.
	const burst = 8
	blob := make([]byte, 4096)
	for i := 0; i < burst; i++ {
		pb.Write(fab.AddrOf(a, uint64(i)*4096), blob, nil)
	}
	b.WriteAt(0x100, []byte{1, 2, 3, 4})
	var calls int
	var got Completion
	var at sim.Time
	pa.Read(fab.AddrOf(b, 0x100), 4, func(c Completion) { calls++; got, at = c, eng.Now() })
	eng.Run()

	if calls != 1 || got.Status != CplTimedOut || got.Data != nil {
		t.Fatalf("done ran %d times, last with %+v; want one CplTimedOut without data", calls, got)
	}
	if want := readBudget(cfg, 4); at != want {
		t.Fatalf("timed out at %v, want %v", at, want)
	}
	if eng.Now() <= at {
		t.Fatalf("engine stopped at %v: the late completion never crossed the link", eng.Now())
	}
	if fab.Errs.CplTimeouts != 1 {
		t.Fatalf("CplTimeouts = %d, want 1", fab.Errs.CplTimeouts)
	}
	if want := int64(burst*cfg.WriteWireBytes(4096) + cfg.CompletionWireBytes(4)); pa.DownBytes != want {
		t.Fatalf("requester down link carried %d bytes, want %d (writes plus the late completion)",
			pa.DownBytes, want)
	}
}

// TestSettledReadLeavesNoResidue: a read that completes in time never
// scheduled its timeout, so the heap is empty the instant done runs.
func TestSettledReadLeavesNoResidue(t *testing.T) {
	eng, fab, _, pa, b, _ := newTestFabric(t)
	b.WriteAt(0x40, []byte{7, 7, 7, 7})
	pending := -1
	pa.Read(fab.AddrOf(b, 0x40), 4, func(c Completion) {
		if !c.OK() {
			t.Errorf("read failed: %+v", c)
		}
		pending = eng.Pending()
	})
	eng.Run()
	if pending != 0 {
		t.Fatalf("%d events pending when the read settled, want 0", pending)
	}
	if fab.Errs != (FabricErrors{}) {
		t.Fatalf("fault-free read counted errors: %+v", fab.Errs)
	}
}

// TestTimedTransactionAllocs pins the fabric's own steady-state cost: a
// posted write and a settled 4 KiB read allocate nothing — both ride
// pooled records through static trampolines, and the read's completion
// buffer comes from the engine's BufPool and goes back to it.
func TestTimedTransactionAllocs(t *testing.T) {
	eng, fab, _, pa, b, _ := newTestFabric(t)
	addr := fab.AddrOf(b, 0x80)
	data := make([]byte, 64)
	done := func(Completion) {}
	pa.Write(addr, data, nil) // warm: hostmem page, freelists
	pa.Read(addr, 4096, done)
	eng.Run()

	if avg := testing.AllocsPerRun(100, func() {
		pa.Write(addr, data, nil)
		eng.Run()
	}); avg != 0 {
		t.Errorf("timed Write: %.1f allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		pa.Read(addr, 4096, done)
		eng.Run()
	}); avg != 0 {
		t.Errorf("timed 4 KiB Read: %.1f allocs, want 0", avg)
	}
}

// TestReadBuffersReturnToPool: the completion buffer a read takes from the
// engine's BufPool goes back exactly once on every way a read can end —
// settled, unsupported, unanswered, dropped either way, poisoned, or late
// behind its own timeout — and done runs exactly once. A missing Put
// leaves a buffer outstanding; a second Put drives the count below zero.
func TestReadBuffersReturnToPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(fab *Fabric, pa, pb, pd *Port, done func(Completion))
		want CplStatus
	}{
		{"settled", func(_ *Fabric, pa, pb, _ *Port, done func(Completion)) {
			pa.Read(pb.Base(), 4096, done)
		}, CplSuccess},
		{"unmapped", func(_ *Fabric, pa, _, _ *Port, done func(Completion)) {
			pa.Read(0x10, 64, done)
		}, CplUR},
		{"unanswered", func(_ *Fabric, pa, _, pd *Port, done func(Completion)) {
			pa.Read(pd.Base(), 64, done)
		}, CplTimedOut},
		{"request dropped", func(fab *Fabric, pa, pb, _ *Port, done func(Completion)) {
			fab.SetFaults(&FaultHooks{Drop: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.MemRd }})
			pa.Read(pb.Base(), 64, done)
		}, CplTimedOut},
		{"completion dropped", func(fab *Fabric, pa, pb, _ *Port, done func(Completion)) {
			fab.SetFaults(&FaultHooks{Drop: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.CplD }})
			pa.Read(pb.Base(), 64, done)
		}, CplTimedOut},
		{"poisoned", func(fab *Fabric, pa, pb, _ *Port, done func(Completion)) {
			fab.SetFaults(&FaultHooks{Corrupt: func(_ *Port, typ telemetry.TLPType) bool { return typ == telemetry.CplD }})
			pa.Read(pb.Base(), 64, done)
		}, CplPoisoned},
		{"late", func(_ *Fabric, pa, pb, _ *Port, done func(Completion)) {
			// 32 KiB of writes hold pa's down link past the read's budget,
			// as in TestLateCompletionLosesToTimeout.
			for i := range 8 {
				pb.Write(pa.Base()+uint64(i)*4096, make([]byte, 4096), nil)
			}
			pa.Read(pb.Base(), 64, done)
		}, CplTimedOut},
	} {
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		cfg := Gen3x8()
		cfg.CplTimeout = sim.Microsecond
		pa := fab.Attach(hostmem.New("a", 1<<20), cfg)
		pb := fab.Attach(hostmem.New("b", 1<<20), cfg)
		pd := fab.Attach(deadDevice{}, cfg)
		var calls int
		var got Completion
		tc.run(fab, pa, pb, pd, func(c Completion) { calls++; got = c })
		eng.Run()
		if calls != 1 || got.Status != tc.want {
			t.Errorf("%s: done ran %d times, last with status %d, want once with %d", tc.name, calls, got.Status, tc.want)
		}
		if n := eng.Bufs().Outstanding(); n != 0 {
			t.Errorf("%s: %d completion buffers outstanding after the read resolved, want 0", tc.name, n)
		}
	}
}
