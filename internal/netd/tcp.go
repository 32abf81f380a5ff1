package netd

import (
	"errors"
	"net"
)

// ErrTCPUnsupported is what ListenTCP returns off Linux. Real sockets go
// through the epoll poller (poller_linux.go); other platforms run over the
// simulated Network only.
var ErrTCPUnsupported = errors.New("netd: real-socket front end requires linux")

// TCPFrontend is a running real-socket front end: the epoll poller
// transport. Close (or Netd.Stop) tears it down.
type TCPFrontend interface {
	Transport
	// Addr reports the bound listen address (useful with ":0").
	Addr() net.Addr
}

// ListenTCP binds a real TCP listener on addr (e.g. "127.0.0.1:0") and
// bridges accepted connections to the Asbestos listeners registered on
// lport, exactly as if they had arrived over the simulated wire. The
// Asbestos side must already be Listening on lport (or start soon —
// connections accepted before then are refused). The front end is
// registered as one of this netd's transports, so Stop tears it down; it
// can also be closed on its own.
func (nd *Netd) ListenTCP(addr string, lport uint16) (TCPFrontend, error) {
	return nd.listenPoller(addr, lport)
}

// TCPConfig has no settings. It and ListenTCPConfig remain only because the
// benchmark's probe listener (bench/server.go) still calls ListenTCPConfig.
type TCPConfig struct{}

// ListenTCPConfig is ListenTCP; see TCPConfig.
func (nd *Netd) ListenTCPConfig(addr string, lport uint16, _ TCPConfig) (TCPFrontend, error) {
	return nd.ListenTCP(addr, lport)
}
