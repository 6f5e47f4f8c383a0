package sim

// Link is the freelist link of a pooled record: a type becomes poolable by
// embedding Link of itself, and nothing else can be pooled.
//
//	type writeOp struct {
//		sim.Link[writeOp]
//		…
//	}
//
// It holds the record's own address beside the next link, so popping the
// list reads two fields instead of calling link through Pool's generic
// dictionary — that call alone would keep Get from inlining.
type Link[T any] struct {
	next *Link[T]
	self *T
}

func (l *Link[T]) link() *Link[T] { return l }

// Pool is the freelist every per-event record of the model is recycled
// through (a PCIe transaction, a descriptor fetch, a frame on a cable):
// the record carries its own link, so a warm Get or Put allocates nothing
// and a pool holds exactly the records its owner once made.
//
// Put clears nothing: whatever the next user reads, its Get side sets, and
// a field bound once by New (a completion closure over the record) survives
// every reuse. New, when set, makes a record on a miss; it should capture
// nothing (a record that points at its owner has that pointer stored after
// Get). A nil New makes new(T). The zero value is an empty pool.
type Pool[T any, P interface {
	*T
	link() *Link[T]
}] struct {
	head *Link[T]
	New  func() *T
}

// Get pops the most recently returned record, or makes one.
func (p *Pool[T, P]) Get() *T {
	l := p.head
	if l == nil {
		return miss(p.New)
	}
	p.head = l.next
	return l.self
}

// miss is Get's slow path. It is a function of New alone: as a method its
// generic dictionary would push Get past the inlining budget.
func miss[T any](New func() *T) *T {
	if New != nil {
		return New()
	}
	return new(T)
}

// Put returns x to the pool; the caller must not use it afterwards.
func (p *Pool[T, P]) Put(x *T) {
	l := P(x).link()
	l.next, l.self = p.head, x
	p.head = l
}
