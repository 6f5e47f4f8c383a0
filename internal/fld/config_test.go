package fld

import (
	"testing"

	"flexdriver/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesBadConfigs has one row per Validate rule; New panics
// on what Validate rejects, so a rule that lets its row through would
// surface as a divide by zero or a silently wrapped uint16 index.
func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []struct {
		rule   string
		mutate func(*Config)
	}{
		{"no tx queue", func(c *Config) { c.NumTxQueues = 0 }},
		{"no CQ entry", func(c *Config) { c.CQEntries = 0 }},
		{"no ring entry", func(c *Config) { c.TxRingEntries = 0 }},
		{"no pool descriptor", func(c *Config) { c.TxDescPool = 0 }},
		{"no transmit page", func(c *Config) { c.TxBufBytes = 0 }},
		{"no receive buffer", func(c *Config) { c.RxBufBytes = 0 }},
		{"ring entries not a power of two", func(c *Config) { c.TxRingEntries = 1000 }},
		{"page bytes not a power of two", func(c *Config) { c.TxPageBytes = 500 }},
		{"page bytes zero", func(c *Config) { c.TxPageBytes = 0 }},
		{"stride zero", func(c *Config) { c.RxStrideBytes = 0 }},
		{"rx WQE bytes zero", func(c *Config) { c.RxWQEBytes = 0 }},
		{"rx WQE not a stride multiple", func(c *Config) { c.RxWQEBytes = 1000 }},
		{"rx buffer not an rx WQE multiple", func(c *Config) { c.RxBufBytes = 100 << 10 }},
		{"signal every zero", func(c *Config) { c.SignalEvery = 0 }},
		{"descriptor pool past uint16", func(c *Config) { c.TxDescPool = 1<<16 + 1 }},
		{"page window past uint16", func(c *Config) { c.TxBufBytes, c.TxPageBytes = 16<<20+512, 512 }},
	}
	for _, tc := range bad {
		c := DefaultConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.rule)
		}
	}
	// The largest index spaces that still fit are accepted.
	c := DefaultConfig()
	c.TxDescPool, c.TxBufBytes = 1<<16, 16<<20
	if err := c.Validate(); err != nil {
		t.Errorf("limit config rejected: %v", err)
	}
}

func TestPacketInterval(t *testing.T) {
	c := DefaultConfig() // 250 MHz, II=8 -> 32 ns
	if got := c.PacketInterval(); got != 32*sim.Nanosecond {
		t.Fatalf("packet interval = %v", got)
	}
	c.ClockMHz = 0
	if c.PacketInterval() != 0 {
		t.Fatal("zero clock should disable pacing")
	}
}

func TestMemoryPrototypeBudget(t *testing.T) {
	m := DefaultConfig().Memory()
	// The prototype config must fit comfortably on the XCKU15P
	// (10.05 MiB) — the paper quotes ~833 KiB-class totals for the
	// 512-queue analysis; the 2-queue prototype is smaller still.
	if m.Total() > 1<<20 {
		t.Fatalf("prototype on-die memory = %d bytes, want < 1 MiB", m.Total())
	}
	if m.RxBuffers != 256<<10 || m.TxBuffers <= 256<<10 || m.RxRing != 0 {
		t.Fatalf("buffer SRAM sizes wrong: %+v", m)
	}
	if m.PI != (2+1)*4 {
		t.Fatalf("producer index bytes = %d", m.PI)
	}
}

func TestAreaScalesWithConfig(t *testing.T) {
	small := DefaultConfig()
	big := small
	big.TxBufBytes *= 4
	big.RxBufBytes *= 4
	big.NumTxQueues = 64
	as, ab := small.Area(), big.Area()
	if ab.URAM <= as.URAM {
		t.Fatal("URAM should grow with buffer SRAM")
	}
	if ab.LUT <= as.LUT || ab.FF <= as.FF {
		t.Fatal("logic should grow with queue count")
	}
}

func TestCompressedSizesMatchPaper(t *testing.T) {
	if CompressedDescBytes != 8 || CompressedCQEBytes != 15 || ProducerIndexBytes != 4 {
		t.Fatal("compressed record sizes drifted from Table 2b")
	}
}
