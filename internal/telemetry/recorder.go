package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"flexdriver/internal/sim"
)

// TLPType classifies a PCIe transaction-layer packet.
type TLPType uint8

// TLP types the fabric records.
const (
	MemWr TLPType = iota // posted memory write
	MemRd                // non-posted memory read request
	CplD                 // completion with data
)

// String names the TLP type as in PCIe trace tooling.
func (t TLPType) String() string {
	switch t {
	case MemWr:
		return "MemWr"
	case MemRd:
		return "MemRd"
	case CplD:
		return "CplD"
	}
	return "?"
}

// Dir is the direction a TLP crosses a link in.
type Dir uint8

// Link directions: Up is device-to-switch, Down is switch-to-device.
const (
	Up Dir = iota
	Down
)

// String names the direction.
func (d Dir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// TLPEvent is one recorded transaction crossing one link direction.
// One event covers a whole logical transaction (which may split into
// several TLPs at MaxPayload boundaries); Wire is the exact wire-byte
// total including every split TLP's header overhead.
type TLPEvent struct {
	// Time is when serialization onto the link began; Dur is the
	// serialization time (link occupancy).
	Time sim.Time
	Dur  sim.Duration
	// Link is the attached device's PCIe name; Dir is the crossing
	// direction on that device's link.
	Link string
	Dir  Dir
	Type TLPType
	// Addr is the fabric address targeted; Bytes is the payload size
	// (0 for read requests); Wire is total wire bytes incl. overhead.
	Addr  uint64
	Bytes int
	Wire  int
}

// Recorder is a bounded ring buffer of TLP events — a flight recorder:
// it always holds the most recent Cap() events, overwriting the oldest.
// Record is O(1) and allocation-free after construction; a nil
// *Recorder ignores events at the cost of one branch.
type Recorder struct {
	buf   []TLPEvent
	next  int
	total uint64
}

// DefaultRecorderCap is the flight-recorder depth used when a caller
// does not size it explicitly (≈64k events ≈ a few ms of saturated
// Gen3 x8 traffic).
const DefaultRecorderCap = 1 << 16

// NewRecorder returns a recorder holding up to capacity events
// (DefaultRecorderCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]TLPEvent, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Recorder) Record(ev TLPEvent) {
	if r == nil {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many events were ever recorded (retained or
// overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []TLPEvent {
	if r == nil {
		return nil
	}
	out := make([]TLPEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// chromeEvent is one trace_event entry. The Trace Event Format is the
// JSON Chrome's chrome://tracing and Perfetto load: "X" complete events
// carry ts/dur in microseconds; "M" metadata events name processes and
// threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace emits the retained events as Chrome trace_event
// JSON. Each link becomes a process (pid), its two directions become
// threads (tid 0 = down, 1 = up), and every transaction is a complete
// ("X") event whose duration is the link serialization time — so the
// timeline shows exactly when each link direction was occupied and by
// what.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()

	// Stable pid assignment: links in sorted-name order.
	pids := map[string]int{}
	var links []string
	for _, ev := range events {
		if _, ok := pids[ev.Link]; !ok {
			pids[ev.Link] = 0
			links = append(links, ev.Link)
		}
	}
	sort.Strings(links)
	for i, link := range links {
		pids[link] = i + 1
	}

	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	for _, link := range links {
		pid := pids[link]
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": "link " + link}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: int(Down),
				Args: map[string]any{"name": "down (switch→device)"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: int(Up),
				Args: map[string]any{"name": "up (device→switch)"}},
		)
	}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("%s %dB", ev.Type, ev.Bytes),
			Cat:  "tlp",
			Ph:   "X",
			Ts:   ev.Time.Microseconds(),
			Dur:  ev.Dur.Microseconds(),
			Pid:  pids[ev.Link],
			Tid:  int(ev.Dir),
			Args: map[string]any{
				"addr":  fmt.Sprintf("%#x", ev.Addr),
				"bytes": ev.Bytes,
				"wire":  ev.Wire,
				"type":  ev.Type.String(),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
