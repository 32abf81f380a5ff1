// Fixtures for ctxrecv: blocking kernel receives must get a context that
// can actually end the wait — context.Background()/TODO() wedges the
// goroutine forever.
package a

import (
	"context"

	"asbestos/internal/kernel"
)

func directBackground(pt *kernel.Port) {
	pt.Recv(context.Background()) // want `blocking Recv with context\.Background\(\): the wait can never be cancelled`
}

func directTODO(m *kernel.Mailbox) {
	m.Recv(context.TODO()) // want `blocking Recv with context\.TODO\(\)`
}

func recvCtxBare(p *kernel.Process) {
	p.RecvCtx(context.Background()) // want `blocking RecvCtx with context\.Background\(\)`
}

func selectBare(a, b *kernel.Port) {
	kernel.Select(context.Background(), a, b) // want `blocking Select with context\.Background\(\)`
}

// A variable that is only ever a bare context is just a renamed wedge.
func viaVariable(pt *kernel.Port) {
	ctx := context.Background()
	pt.Recv(ctx) // want `blocking Recv with context\.Background\(\)`
}

// --- clean shapes

func threadsCallerCtx(ctx context.Context, pt *kernel.Port) {
	pt.Recv(ctx)
}

func derivesCancel(pt *kernel.Port) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pt.Recv(ctx)
}

func derivesTimeout(p *kernel.Process) {
	ctx, cancel := context.WithTimeout(context.Background(), 1000)
	defer cancel()
	p.RecvCtx(ctx)
}

// Reassigned from the caller's ctx on some path: not provably bare.
func reassigned(outer context.Context, pt *kernel.Port, retry bool) {
	ctx := context.Background()
	if retry {
		ctx = outer
	}
	pt.Recv(ctx)
}

// TryRecv never blocks; no context, nothing to check.
func nonBlocking(pt *kernel.Port) {
	pt.TryRecv()
}
