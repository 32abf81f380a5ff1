package kernel

import (
	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/stats"
)

// BatchEntry is one message of a SendBatch call: a payload plus the send
// call's optional labels. Port.Send is a one-entry batch, so every message
// the kernel carries passes through this shape and the one send path that
// checks it. Adjacent entries that share one *SendOpts value (pointer
// identity, nil included) also share the prepared label set, so the common
// burst — N replies with identical options — performs the Figure 4
// sender-side work exactly once.
//
// Owned declares that the caller transfers ownership of Data to the kernel:
// the payload is enqueued without the defensive copy Send makes, and the
// caller must never touch the slice again. The trusted event loops set it
// for the wire buffers they build fresh per message.
type BatchEntry struct {
	Data  []byte
	Opts  *SendOpts
	Owned bool
}

// sendBatchVia is the send system call of Figure 4, and the only kernel
// path that builds and publishes messages: Port.Send is a one-entry batch,
// and Port.SendBatch and Batcher.Flush pass their entries straight through.
// The destination's vnode has already been resolved (nil when the handle
// is unknown). A batch of N messages to one port is a single syscall,
// semantically equivalent to sending each entry in order.
//
// Sender-side requirements (2) and (3) are checked immediately — they
// depend only on the caller's own labels, so failing them leaks nothing:
//
//	(2) DS(h) < 3  ⇒ PS(h) = ⋆   — granting privilege demands ⋆
//	(3) DR(h) > ⋆  ⇒ PS(h) = ⋆   — raising another's receive label likewise
//
// The remaining requirements — (1) ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR and (4)
// DR ⊑ pR — and the label effects are evaluated per message when the
// receiver attempts delivery (Process.scan); a message failing them is
// silently dropped. A nil error therefore does NOT imply delivery
// (unreliable messaging, §4): a batch may be partially delivered and
// partially dropped, and batching changes the cost of sending, never the
// paper's delivery semantics.
//
// The per-message overheads are amortized across the batch:
//
//   - the sender's labels are snapshotted once, under its own lock — the
//     batch is one syscall, so one snapshot is exactly the enqueue-time
//     atomicity Figure 4 asks for;
//   - requirements (2) and (3) run once per run of entries sharing one
//     Opts pointer rather than once per message;
//   - the destination's routing state is one atomic load;
//   - all admitted messages are published to the receiver's lock-free
//     inbox with ONE compare-and-swap, and the receiver is unparked at most
//     once. The receiver's mutex is never taken: the empty→non-empty wakeup
//     goes through its waiter set's leaf lock, so a send does not wait out
//     a receive scan (package lock-ordering rule 3).
//
// Per-sender FIFO order is preserved: the batch occupies one slot in the
// receiver's arrival order and its entries are delivered in slice order.
//
// If any entry's options fail the sender-side checks, the whole call is
// rejected with ErrPrivilege and nothing is enqueued; every entry is
// counted as a "reject:<class>" drop, or "reject" when the destination is
// unresolvable, since an invisible rejection is undebuggable. A send to an
// unknown or dissociated port still runs the privilege checks, so a
// violation is reported identically either way, then drops every entry as
// "dead" without building a message. Queue-limit accounting matches N
// individual sends exactly: the prefix that fits is enqueued and the
// overflowing tail is dropped and counted.
func (p *Process) sendBatchVia(port handle.Handle, vn *vnode, entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	stop := p.sys.prof.Time(stats.CatKernelIPC)
	defer stop()

	ps, err := p.sendSnapshot()
	if err != nil {
		return err
	}
	var owner *Process
	if st, ok := vn.state(); ok {
		owner = st.owner
	}

	// Prepare the label set once per run of entries sharing one Opts
	// pointer: real batches either share one Opts value or group entries
	// with equal options together. A one-entry send lists its message in
	// buf, so it allocates no list.
	var (
		es, ds, dr, v *label.Label
		buf           [1]*Message
	)
	msgs := buf[:0]
	if owner != nil && len(entries) > len(buf) {
		msgs = make([]*Message, 0, len(entries))
	}
	for i := range entries {
		e := &entries[i]
		if i == 0 || e.Opts != entries[i-1].Opts {
			var cs *label.Label
			cs, ds, dr, v = e.Opts.defaults()
			if !label.Req2(ds, ps) || !label.Req3(dr, ps) {
				class := dropClassReject
				if owner != nil {
					class += ":" + portClass(owner.name)
				}
				p.sys.dropMsgs(msgs, class, len(entries))
				return ErrPrivilege
			}
			if owner != nil {
				es = ps.Lub(cs)
			}
		}
		if owner == nil {
			continue
		}
		m := getMsg()
		m.Port = port
		if e.Owned {
			m.Data = e.Data
		} else {
			m.Data = append(getPayload(), e.Data...)
		}
		m.es, m.ds, m.dr, m.v = es, ds, dr, v
		m.next = nil
		msgs = append(msgs, m)
	}
	if owner == nil {
		// Undeliverable, but the send still "succeeds" (§4).
		p.sys.countDrop(dropClassDead, uint64(len(entries)))
		return nil
	}

	if p.sys.fault != nil {
		msgs = p.sys.inject(owner, msgs)
	}
	// Admit the prefix that fits; drop the tail (dead receiver or resource
	// exhaustion, §4).
	k := owner.admit(len(msgs))
	if k < len(msgs) {
		p.sys.dropMsgs(msgs[k:], portClass(owner.name), len(msgs)-k)
	}
	if k == 0 {
		return nil
	}
	// Pre-link the admitted chain newest→oldest; one CAS publishes all of
	// it.
	for i := 1; i < k; i++ {
		msgs[i].next = msgs[i-1]
	}
	owner.publish(msgs[0], msgs[k-1])
	return nil
}

// dropMsgs counts n messages bound for class as dropped and recycles those
// of them already built, which were never published.
func (s *System) dropMsgs(built []*Message, class string, n int) {
	for _, m := range built {
		freeMsg(m)
	}
	s.countDrop(class, uint64(n))
}

// admit reserves queue slots for up to n incoming messages against p's
// queue limit, returning how many were admitted: all of them, a prefix
// when the queue is nearly full, or zero when it is full or p is dead
// (resource exhaustion, §4). The caller accounts drops for the remainder.
//
// The queued counter is raised here and lowered as messages leave the
// pending list, so the limit bounds inbox + pending together, exactly what
// the seed's mutex-guarded slice bounded. The count a batch admits is the
// same prefix N individual sends would have enqueued; concurrent senders
// settle the same total either way, since the counter reservation is
// atomic.
func (p *Process) admit(n int) int {
	if p.deadFlag.Load() {
		return 0
	}
	over := p.queued.Add(int64(n)) - int64(p.sys.queueLimit)
	if over <= 0 {
		return n
	}
	k := int64(n) - over
	if k < 0 {
		k = 0
	}
	p.queued.Add(k - int64(n)) // give back the slots the tail reserved
	return int(k)
}

// publish pushes a pre-linked chain (oldest…newest) of admitted messages
// onto p's inbox and unparks receivers on the empty→non-empty transition.
// The signal takes only the waiter set's leaf lock, never p.mu: a receiver
// in the middle of a scan holds p.mu for a whole Figure 4 label pass, and
// the sender has no business waiting for it (waitLocked says why the
// wakeup still cannot fall between the receiver's last drain and its park).
func (p *Process) publish(oldest, newest *Message) {
	if p.inbox.push(oldest, newest) {
		p.wakeAll()
	}
}

// Batcher accumulates outgoing messages per destination port and flushes
// each destination with one SendBatch. The trusted event loops (ok-demux,
// netd, ok-dbproxy) use it to coalesce a burst of work — connection
// handoffs, read replies, result rows — into one queue operation per
// destination instead of one per message.
//
// Rules of use: a Batcher belongs to one sending process and is not safe
// for concurrent use. Messages for one port must not bypass a non-empty
// Batcher with a direct Send, or per-port FIFO order is lost; and any label
// privilege a buffered message relies on (a ⋆ being granted via DecontSend)
// must still be held at Flush time — shed capabilities after Flush, not
// before.
type Batcher struct {
	p     *Process
	slots []portBatch
	n     int
	drops []handle.Handle // privileges to shed after the next Flush
}

// portBatch is one destination's buffered messages. The number of distinct
// destinations per burst is small (bounded by the event loops' burst caps),
// so destinations live in a linear-scanned slice — no map allocation or
// hashing per message — and every slot's entry array is reused across
// flushes.
type portBatch struct {
	port    handle.Handle
	entries []BatchEntry
}

// NewBatcher returns an empty batcher sending from p.
func NewBatcher(p *Process) *Batcher {
	return &Batcher{p: p}
}

// Add buffers one message for port, transferring ownership of data to the
// kernel: the slice is enqueued without a defensive copy at Flush, so the
// caller must not touch it again. Every event-loop user builds its wire
// buffers fresh per message, which is exactly this contract.
func (b *Batcher) Add(port handle.Handle, data []byte, opts *SendOpts) {
	b.n++
	e := BatchEntry{Data: data, Opts: opts, Owned: true}
	for i := range b.slots {
		if b.slots[i].port == port {
			b.slots[i].entries = append(b.slots[i].entries, e)
			return
		}
	}
	// New destination: reuse a retired slot's entry array if one is spare.
	if len(b.slots) < cap(b.slots) {
		b.slots = b.slots[:len(b.slots)+1]
		s := &b.slots[len(b.slots)-1]
		s.port = port
		s.entries = append(s.entries[:0], e)
		return
	}
	b.slots = append(b.slots, portBatch{port: port, entries: []BatchEntry{e}})
}

// Len reports the number of buffered messages.
func (b *Batcher) Len() int { return b.n }

// DropAfter schedules DropPrivilege(h, 1) for after the next Flush. This is
// the safe way to shed a capability a buffered message still depends on —
// a grant via DecontSend must be held by the sender at enqueue time, which
// for batched messages is the Flush, not the Add.
func (b *Batcher) DropAfter(h handle.Handle) {
	b.drops = append(b.drops, h)
}

// Flush sends every buffered message, one SendBatch per destination port in
// first-use order, then sheds the privileges scheduled with DropAfter, and
// empties the batcher. The first error (a sender-side privilege failure) is
// returned after all ports have been attempted; silent drops are, as ever,
// not errors.
func (b *Batcher) Flush() error {
	var first error
	for i := range b.slots {
		s := &b.slots[i]
		if err := b.p.sendBatchVia(s.port, b.p.sys.lookup(s.port), s.entries); err != nil && first == nil {
			first = err
		}
		// Release payload/opts references (the slot and its entry array are
		// retained for reuse; the buffers must not be).
		for j := range s.entries {
			s.entries[j] = BatchEntry{}
		}
		s.entries = s.entries[:0]
		s.port = handle.None
	}
	b.slots = b.slots[:0]
	b.n = 0
	for _, h := range b.drops {
		b.p.DropPrivilege(h, label.L1)
	}
	b.drops = b.drops[:0]
	return first
}
