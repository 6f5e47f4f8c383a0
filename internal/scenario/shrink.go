package scenario

import "flexdriver/internal/faults"

// shrinkBudget bounds the number of candidate runs one Shrink spends.
// Each candidate is a full scenario run (two for replay-determinism
// violations), so the budget is what keeps a shrink interactive.
const shrinkBudget = 48

// Shrink reduces a violating spec to a (locally) minimal one that still
// trips the same invariant. It is a greedy descent: each pass proposes a
// fixed ladder of simplifications — zero out one fault class, drop the
// RDMA sidecar, fall back from VXLAN to plain Ethernet, calm bursty
// arrivals to Poisson, cut clients, cores, window and load — and keeps
// any candidate that still reproduces. The pass repeats until no
// candidate helps or the run budget is spent. It returns the reduced
// spec and the number of candidate runs it took.
func Shrink(s Spec, invariant string) (Spec, int) {
	runs := 0
	trips := func(c Spec) bool {
		runs++
		var r *Result
		if invariant == "replay-determinism" {
			r = Check(c)
		} else {
			r = Run(c)
		}
		return r.Violated(invariant)
	}

	for {
		improved := false
		for _, c := range candidates(s) {
			if runs >= shrinkBudget {
				return s, runs
			}
			if trips(c) {
				s = c
				improved = true
				break // restart the ladder from the simpler spec
			}
		}
		if !improved {
			return s, runs
		}
	}
}

// candidates proposes one-step simplifications of s, cheapest structural
// reductions first so the first reproducing candidate removes the most.
func candidates(s Spec) []Spec {
	var cs []Spec
	add := func(c Spec) { cs = append(cs, c) }

	// Bisect the fault plan: drop whole fault classes one at a time.
	if s.Faults != "" {
		if cfg, err := faults.ParseSpec(s.Faults); err == nil {
			zeroed := []func(*faults.Config){
				func(c *faults.Config) { c.WireLoss, c.WireDup, c.WireDelay, c.WireDropNth = 0, 0, 0, nil },
				func(c *faults.Config) { c.PCIeDrop, c.PCIeCorrupt = 0, 0 },
				func(c *faults.Config) { c.DoorbellLoss, c.WQEFetchFail, c.CQEErr = 0, 0, 0 },
				func(c *faults.Config) { c.AccelStall = 0 },
				func(c *faults.Config) { c.FlapEvery, c.FlapFor = 0, 0 },
				func(c *faults.Config) { c.FLDResetEvery, c.FLDResetFor = 0, 0 },
				func(c *faults.Config) { c.NICFLREvery, c.NICFLRFor = 0, 0 },
				func(c *faults.Config) { c.NodeCrashEvery, c.NodeCrashFor = 0, 0 },
				func(c *faults.Config) { c.DrvCrashEvery, c.DrvCrashFor = 0, 0 },
				func(c *faults.Config) { c.SwRebootEvery, c.SwRebootFor = 0, 0 },
				func(c *faults.Config) { c.PartEvery, c.PartFor = 0, 0 },
			}
			for _, zero := range zeroed {
				mod := cfg
				zero(&mod)
				if spec := mod.String(); spec != s.Faults {
					c := s
					c.Faults = spec
					add(c)
				}
			}
		}
	}

	// Structural reductions. Tenancy first: a violation that survives
	// without the managed control plane removes the whole subsystem from
	// the repro; one that needs it keeps tenants but sheds the mid-window
	// reconfigure, then spare tenants. (A planted leak pins the tenancy:
	// the drop-tenancy candidate would make the spec invalid, so it is
	// only offered when PlantLeakNth is off.)
	if s.Tenants > 0 {
		if s.PlantLeakNth == 0 {
			c := s
			c.Tenants, c.Reconfig = 0, false
			add(c)
		}
		if s.Reconfig {
			c := s
			c.Reconfig = false
			add(c)
		}
		if s.Tenants > 2 {
			c := s
			c.Tenants = s.Tenants - 1
			c.FLDCores = c.Tenants // tenant mode builds one core per tenant
			add(c)
		}
	}
	// Aggregation: first try collapsing the hundred-node topology back to
	// the discrete path entirely (a violation that survives is not about
	// aggregation at all), then halve the folded population and the host
	// count while keeping the mode.
	if s.AggClients > 0 {
		c := s
		c.AggHosts, c.AggClients = 0, 0
		add(c)
		if s.AggClients > 2 {
			c2 := s
			c2.AggClients = s.AggClients / 2
			c2.AggClients = max(c2.AggClients, c2.AggHosts)
			add(c2)
		}
		if s.AggHosts > 1 {
			c3 := s
			c3.AggHosts = s.AggHosts / 2
			add(c3)
		}
	}
	// TCP/RPC serving: first try dropping the whole data path back to UDP
	// (removes the framing layers and the sidecar at once); an rpc
	// violation that survives raw TCP framing sheds the key-value layer.
	// A planted ack-drop pins the sidecar, so the drop-proto candidate is
	// only offered when the plant is off.
	if s.Proto != "" {
		if s.PlantAckDropNth == 0 {
			c := s
			c.Proto = ""
			add(c)
		}
		if s.Proto == "rpc" {
			c := s
			c.Proto = "tcp"
			add(c)
		}
	}
	if s.RDMA {
		c := s
		c.RDMA = false
		add(c)
	}
	if s.Path == "vxlan" {
		c := s
		c.Path = "eth"
		add(c)
	}
	if s.Pattern == "bursty" {
		c := s
		c.Pattern = "poisson"
		add(c)
	}
	if s.Clients > 1 {
		c := s
		c.Clients = 1
		add(c)
		if s.Clients > 2 {
			c2 := s
			c2.Clients = s.Clients - 1
			add(c2)
		}
	}
	// Tenant mode pins one core per tenant, so halving cores only applies
	// to the flat data path.
	if s.Tenants == 0 && s.FLDCores > 1 {
		c := s
		c.FLDCores = s.FLDCores / 2
		add(c)
	}

	// Workload reductions.
	if s.WindowUs > 20 {
		c := s
		if c.WindowUs = s.WindowUs / 2; c.WindowUs < 20 {
			c.WindowUs = 20
		}
		add(c)
	}
	if s.PerClientGbps > 0.5 {
		c := s
		if c.PerClientGbps = float64(int(s.PerClientGbps*5)) / 10; c.PerClientGbps < 0.5 {
			c.PerClientGbps = 0.5
		}
		add(c)
	}
	if s.FrameMax > s.FrameMin {
		c := s
		c.FrameMax = s.FrameMin
		add(c)
	}
	return cs
}
