package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30*Nanosecond, func() { got = append(got, 3) })
	e.After(10*Nanosecond, func() { got = append(got, 1) })
	e.After(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(Nanosecond, func() {
		fired = append(fired, e.Now())
		e.After(2*Nanosecond, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != Nanosecond || fired[1] != 3*Nanosecond {
		t.Fatalf("nested schedule wrong: %v", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.After(5*Nanosecond-e.Now(), func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(Time(i)*Microsecond, func() { count++ })
	}
	e.RunUntil(5 * Microsecond)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("now = %v, want 5us", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count after drain = %d, want 10", count)
	}
}

func TestBitRateSerialize(t *testing.T) {
	// 64 B at 100 Gbps = 5.12 ns = 5120 ps.
	got := (100 * Gbps).Serialize(64)
	if got != 5120*Picosecond {
		t.Fatalf("serialize = %v ps, want 5120", int64(got))
	}
	// 1500 B at 25 Gbps = 480 ns.
	got = (25 * Gbps).Serialize(1500)
	if got != 480*Nanosecond {
		t.Fatalf("serialize = %v, want 480ns", got)
	}
	if (BitRate(0)).Serialize(100) != 0 {
		t.Fatal("zero rate should serialize in zero time")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var done []Time
	// Three items of 10ns each submitted at t=0 finish at 10, 20, 30 ns.
	for i := 0; i < 3; i++ {
		done = append(done, r.Acquire(10*Nanosecond))
	}
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Acquire scheduled %d events, want none", e.Pending())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var second Time
	r.Acquire(10 * Nanosecond)
	e.After(50*Nanosecond, func() { second = r.Acquire(5 * Nanosecond) })
	e.Run()
	if second != 55*Nanosecond {
		t.Fatalf("second completion at %v, want 55ns", second)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(30 * Nanosecond)
	e.After(100*Nanosecond, func() {})
	e.Run()
	if u := r.Utilization(); math.Abs(u-0.3) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.3", u)
	}
}

func TestTokenBucket(t *testing.T) {
	e := NewEngine()
	tb := NewTokenBucket(e, 8*Gbps, 1000) // 1 GB/s refill, 1000 B burst
	if !tb.Admit(1000) {
		t.Fatal("full bucket should admit burst")
	}
	if tb.Admit(1) {
		t.Fatal("empty bucket should reject")
	}
	// After 500 ns at 1 GB/s, 500 bytes are available.
	e.After(500*Nanosecond, func() {
		if !tb.Admit(500) {
			t.Error("bucket should have refilled 500 B")
		}
		if tb.Admit(1) {
			t.Error("bucket should be empty again")
		}
	})
	e.Run()
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	e := NewEngine()
	tb := NewTokenBucket(e, 8*Gbps, 100)
	e.After(Millisecond, func() {
		if tb.Admit(101) {
			t.Error("bucket must not exceed burst depth")
		}
		if !tb.Admit(100) {
			t.Error("bucket should hold exactly burst depth")
		}
	})
	e.Run()
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(42)
	const n = 200000
	mean := 10 * Microsecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.02*float64(mean) {
		t.Fatalf("exp mean = %v, want ~%v", Time(got), mean)
	}
}

func TestRandParetoBounds(t *testing.T) {
	r := NewRand(7)
	check := func(seed int64) bool {
		rr := NewRand(seed)
		v := rr.Pareto(Microsecond, 100*Microsecond, 1.5)
		return v >= Microsecond && v <= 100*Microsecond
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{5 * Nanosecond, "5.000ns"},
		{2500 * Nanosecond, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
}

func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine()
	r := NewResource(e)
	for i := 0; i < b.N; i++ {
		r.Acquire(Nanosecond)
	}
}

// TestBackoffDrawsOncePerCall pins the retry pacing the supervision
// ladder and the tenancy reconciler share: base·2^(n-1) capped at max,
// times a ±25 % factor that is exactly one Float64 from the caller's
// stream — so the schedules (and the failover/tenancy goldens built on
// them) are a function of the seed and the attempt number alone.
func TestBackoffDrawsOncePerCall(t *testing.T) {
	const base, max = 500 * Nanosecond, 4 * Microsecond
	r, ref := NewRand(7), NewRand(7)
	for n, nominal := range []Duration{base, base, 2 * base, 4 * base, max, max, max} {
		want := Duration(float64(nominal) * (0.75 + 0.5*ref.Float64()))
		if got := r.Backoff(base, max, n); got != want {
			t.Fatalf("attempt %d: backoff %v, want %v", n, got, want)
		}
	}
}
