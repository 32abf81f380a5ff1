package okws

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/netd"
	"asbestos/internal/stats"
)

// Service describes one worker the launcher should start.
type Service struct {
	// Name is the first path segment routed to this worker.
	Name string
	// Handler is the worker's (untrusted) application logic.
	Handler Handler
	// Declassifier marks the worker semi-trusted: it receives uT ⋆ instead
	// of taint and may call Ctx.Declassify (§7.6).
	Declassifier bool
	// EphemeralSessions makes event processes exit after each request
	// instead of caching session state.
	EphemeralSessions bool
	// NoClean disables ep_clean and session teardown, reproducing the
	// paper's worst-case active-session memory measurement (§9.1).
	NoClean bool
	// Replicas is the number of identical worker processes to launch for
	// this service (0 or 1 means one). The demux deals new users to
	// replicas round-robin; each user's session stays pinned to the event
	// process that created it. Replication is how OKWS exploits the sharded
	// kernel on multicore hardware: one service's request stream fans out
	// over Replicas truly parallel processes.
	Replicas int
}

// replicaCount normalizes Replicas.
func (svc Service) replicaCount() int {
	if svc.Replicas < 1 {
		return 1
	}
	return svc.Replicas
}

// Config configures a full OKWS stack.
type Config struct {
	// Seed keys the kernel's handle allocator (deterministic tests).
	Seed uint64
	// HTTPPort is the simulated TCP port to listen on (default 80).
	HTTPPort uint16
	// Profiler, when set, receives per-component costs (Figure 9).
	Profiler *stats.Profiler
	// Services lists the workers to launch.
	Services []Service
	// Shards is the number of independent event loops each trusted
	// single-process service (ok-demux, netd, ok-dbproxy, idd) runs. 0
	// means runtime.GOMAXPROCS(0) — one loop per schedulable core. The
	// demux shards own disjoint user slices (sessions never split across
	// shards), netd shards own disjoint connections, dbproxy replicas split
	// the query stream by the same user hash, and idd shards own disjoint
	// username slices (idd.ShardFor), so the demux routes each login
	// straight to the owner.
	Shards int
	// SessionTableCap bounds the demux's session table across all shards
	// (0 = DefaultSessionCap). Pinned entries (a fresh user's start in
	// flight) and bound sessions share the cap. Oldest entries are evicted:
	// a bound one is a routing cache, and its worker event process is
	// reclaimed; a pin's parked connections are refused with 503.
	SessionTableCap int
	// IDCacheCap bounds the demux's hashed login cache across all shards
	// (0 = DefaultIDCacheCap).
	IDCacheCap int
	// IddOptions tunes idd beyond the shard count (backoff table bound,
	// hashing cost, lockout ladder). Shards inside it is overridden by Shards.
	IddOptions idd.Options
	// RequestDeadline bounds each request's demux-side life — header read,
	// login round trips, taint, handoff — and rides into the worker as the
	// handler context's deadline, so one clock covers the whole chain. A
	// request that outlives it is answered 504 and torn down. 0 disables
	// (no deadline, the pre-timeout behavior).
	RequestDeadline time.Duration
	// SessionTTL bounds how long an IDLE session entry pins its worker
	// event process; each handoff resets the clock. Expiry evicts the entry
	// and ep_exits the orphaned event process, like a capacity eviction but
	// proactive. 0 disables.
	SessionTTL time.Duration
	// IdleTimeout makes netd evict and close connections with no socket
	// activity for the given duration — the backstop under every
	// finer-grained deadline above it. 0 disables.
	IdleTimeout time.Duration
	// FaultInjector, when set, is installed on the kernel send path
	// (kernel.WithFaultInjector); see internal/faultinject. Nil — always,
	// outside chaos tests — costs one pointer check per send.
	FaultInjector kernel.FaultInjector
}

// shardCount resolves the Shards knob.
func (cfg Config) shardCount() int {
	if cfg.Shards == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		return 1
	}
	return cfg.Shards
}

// Server is a running OKWS stack: kernel, netd, database, ok-dbproxy, idd,
// ok-demux and workers, wired as in Figure 1.
type Server struct {
	Sys      *kernel.System
	Netd     *netd.Netd
	Database *db.DB
	Proxy    *dbproxy.Proxy
	Idd      *idd.Idd
	Demux    *Demux

	HTTPPort uint16

	launcher *kernel.Process
	workers  []*Worker
}

// Launch boots the whole stack (paper §7.1). It returns with every process
// running and every worker registered with the demux.
func Launch(cfg Config) (*Server, error) {
	if cfg.HTTPPort == 0 {
		cfg.HTTPPort = 80
	}
	opts := []kernel.Option{kernel.WithSeed(cfg.Seed)}
	if cfg.Profiler != nil {
		opts = append(opts, kernel.WithProfiler(cfg.Profiler))
	}
	if cfg.FaultInjector != nil {
		opts = append(opts, kernel.WithFaultInjector(cfg.FaultInjector))
	}
	shards := cfg.shardCount()
	sys := kernel.NewSystem(opts...)
	nd := netd.NewOpts(sys, netd.Options{
		Shards:      shards,
		IdleTimeout: cfg.IdleTimeout,
	})
	database := db.Open()
	proxy := dbproxy.NewSharded(sys, database, shards)
	iddOpts := cfg.IddOptions
	iddOpts.Shards = shards
	iddSrv := idd.NewOpts(sys, proxy, iddOpts)
	demux := newDemux(sys, nd.ServicePort(), iddSrv.LoginPorts(),
		shards, cfg.SessionTableCap, cfg.IDCacheCap,
		cfg.RequestDeadline, cfg.SessionTTL)

	s := &Server{
		Sys:      sys,
		Netd:     nd,
		Database: database,
		Proxy:    proxy,
		Idd:      iddSrv,
		Demux:    demux,
		HTTPPort: cfg.HTTPPort,
		launcher: sys.NewProcess("launcher"),
	}

	demuxSess := demux.sessionPorts()
	proxyPorts := proxy.WorkerPorts()

	totalWorkers := 0
	for _, svc := range cfg.Services {
		for i := 0; i < svc.replicaCount(); i++ {
			w := newWorker(sys, svc.Name, svc.Handler)
			w.declassifier = svc.Declassifier
			w.keepSessions = !svc.EphemeralSessions
			w.debugNoClean = svc.NoClean
			// Requests woken off a parked keep-alive connection never pass
			// through the demux, so the worker applies the configured
			// deadline itself.
			w.reqDeadline = cfg.RequestDeadline
			// Worker-side idle backstop at twice the demux TTL: the demux's
			// proactive opEvict normally wins; the backstop only catches the
			// evict the unreliable kernel silently dropped.
			if cfg.SessionTTL > 0 {
				w.epTTL = 2 * cfg.SessionTTL
			}
			for _, h := range demuxSess {
				w.sessPorts = append(w.sessPorts, w.proc.Port(h))
			}
			for _, h := range proxyPorts {
				w.proxyPorts = append(w.proxyPorts, w.proc.Port(h))
			}

			// §7.1: the launcher grants a process-specific verification
			// handle to each worker it starts and tells ok-demux its value.
			// The grant is at ⋆ — the one level that survives contamination
			// (Equation 5 floors every non-⋆ entry on receipt), which the
			// worker needs: its event processes must still prove the handle
			// at 0 when registering session ports after being tainted by
			// the start message.
			verif := s.launcher.NewHandle()
			kernel.BootstrapGrants(w.proc, []kernel.BootstrapGrant{
				{From: s.launcher, Handles: []handle.Handle{verif}},
			})
			demux.expectWorker(svc.Name, verif, svc.Declassifier, svc.EphemeralSessions)
			if err := w.register(demux.regPort.Handle(), verif); err != nil {
				return nil, fmt.Errorf("okws: register %q: %w", svc.Name, err)
			}
			s.workers = append(s.workers, w)
			totalWorkers++
		}
	}

	// Drain registrations synchronously before the demux loops start, so a
	// request can never race a worker registration. Registrations arrive at
	// shard 0, which broadcasts each verified worker to the sibling shards'
	// forward ports; those messages are queued ahead of any possible
	// connection traffic (listen has not happened yet), so every shard
	// knows every worker before it can see a request.
	s0 := demux.shards[0]
	for demux.registeredWorkers() < totalWorkers {
		d, err := s0.proc.TryRecv()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, fmt.Errorf("okws: missing worker registration")
		}
		s0.dispatch(d)
	}

	if err := demux.listen(cfg.HTTPPort); err != nil {
		return nil, err
	}

	go nd.Run()
	go proxy.Run()
	go iddSrv.Run()
	go demux.Run()
	for _, w := range s.workers {
		go w.Run()
	}

	// The Listen request is served by netd's loop; wait for it so the stack
	// is dialable the moment Launch returns (clients do not retry refused
	// connections, and nothing else orders the first Dial after the loop's
	// first iteration).
	for deadline := time.Now().Add(10 * time.Second); !nd.Network().Listening(cfg.HTTPPort); {
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("okws: netd never started listening on %d", cfg.HTTPPort)
		}
		// Yield-then-nap rather than busy-spin: the netd loop this waits on
		// may need the very core this goroutine would otherwise burn.
		runtime.Gosched()
		time.Sleep(50 * time.Microsecond)
	}
	return s, nil
}

// AddUser provisions an account in the password database. A name that
// already has an account is rejected.
func (s *Server) AddUser(user, pass, uid string) error {
	reply := s.launcher.Open(nil)
	defer reply.Dissociate()
	adminPort, _ := s.Sys.Env(idd.EnvAdminPort)
	if err := idd.AddUser(s.launcher.Port(adminPort), user, pass, uid, reply.Handle()); err != nil {
		return err
	}
	// Bound the wait: if idd died the reply never comes, and an unbounded
	// receive would wedge the caller forever (ctxrecv flags Background
	// receives for exactly this reason).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d, err := reply.Recv(ctx)
	if err != nil {
		return err
	}
	if !idd.ParseAddUserReply(d) {
		return fmt.Errorf("okws: AddUser(%s) rejected", user)
	}
	return nil
}

// Network returns the simulated wire clients dial into.
func (s *Server) Network() *netd.Network { return s.Netd.Network() }

// ListenTCP exposes the running stack over a real TCP socket: accepted
// connections feed the same sharded netd loops (and from there the same
// demux/worker path) as simulated ones. addr is a net.Listen address like
// "127.0.0.1:0" or ":8080"; the returned front end reports the bound
// address and is closed by Stop with the rest of the stack. Real sockets
// run on netd's epoll poller on Linux; other platforms get
// netd.ErrTCPUnsupported and serve over the simulated wire only.
func (s *Server) ListenTCP(addr string) (netd.TCPFrontend, error) {
	return s.Netd.ListenTCP(addr, s.HTTPPort)
}

// Workers returns the launched workers (diagnostics and experiments).
func (s *Server) Workers() []*Worker { return s.workers }

// Stop tears the stack down.
func (s *Server) Stop() {
	for _, w := range s.workers {
		w.Stop()
	}
	s.Demux.Stop()
	s.Idd.Stop()
	s.Proxy.Stop()
	s.Netd.Stop()
	s.launcher.Exit()
}
