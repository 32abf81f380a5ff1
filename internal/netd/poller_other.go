//go:build !linux

package netd

// listenPoller has no engine to start: real sockets are Linux-only.
func (nd *Netd) listenPoller(addr string, lport uint16) (TCPFrontend, error) {
	return nil, ErrTCPUnsupported
}
