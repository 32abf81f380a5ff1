// Stub of asbestos/internal/kernel for analyzer fixtures: signatures only,
// matching the real package's receive/grant/drop surface. The analyzers
// resolve types by package-path suffix, so fixtures compiled against this
// stub exercise exactly the production detection logic.
package kernel

import (
	"context"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

type Delivery struct {
	Port handle.Handle
	Data []byte
	V    *label.Label
}

type SendOpts struct {
	DecontSend  *label.Label
	DecontRecv  *label.Label
	Contaminate *label.Label
	Verify      *label.Label
}

type Process struct{ _ [0]byte }

func (p *Process) RecvCtx(ctx context.Context, filter ...handle.Handle) (*Delivery, error) {
	return nil, nil
}

func (p *Process) DropPrivilege(h handle.Handle, lvl label.Level) error { return nil }

func (p *Process) Open(l *label.Label) *Port { return nil }

func (p *Process) Port(h handle.Handle) *Port { return nil }

type Port struct{ _ [0]byte }

func (pt *Port) Recv(ctx context.Context) (*Delivery, error) { return nil, nil }

func (pt *Port) TryRecv() (*Delivery, error) { return nil, nil }

func (pt *Port) Handle() handle.Handle { return 0 }

func (pt *Port) Send(msg []byte, opts *SendOpts) error { return nil }

type Mailbox struct{ _ [0]byte }

func (m *Mailbox) Recv(ctx context.Context) (*Delivery, error) { return nil, nil }

func (m *Mailbox) Handle() handle.Handle { return 0 }

type Batcher struct{ _ [0]byte }

func (b *Batcher) DropAfter(h handle.Handle) {}

func Grant(hs ...handle.Handle) *label.Label { return nil }

func Select(ctx context.Context, ports ...*Port) (*Delivery, *Port, error) {
	return nil, nil, nil
}
