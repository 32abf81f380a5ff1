package asbestos

// The userspace-server surface of the facade: the OK Web server stack
// (§7), the labeled file server (§5.2–5.4), HTTP message types, and the
// simulated network that load generators dial into.

import (
	"asbestos/internal/fs"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/netd"
	"asbestos/internal/okws"
	"asbestos/internal/workload"
)

// WebServer is a running OKWS stack (§7).
type WebServer = okws.Server

// WebService describes one OKWS worker.
type WebService = okws.Service

// WebConfig configures LaunchWeb. Besides the shard count shared by the
// trusted services — idd's loops among them, sharded by username hash — it
// tunes the identity server through IddOptions, the login path's
// semantics: passwords are stored as Argon2id hashes and verified in
// constant time, each idd shard holds a bounded LRU identity cache so
// repeat logins verify locally without a database round trip, and failed
// logins climb a bounded per-username lockout ladder (IddOptions.Ladder;
// attempts against a locked name are deferred unverified, so credential
// stuffing costs the attacker time, not the server hashing work).
//
// Three knobs form the lifecycle-deadline ladder, finest first:
// RequestDeadline bounds one request end to end (demux read, login round
// trips, taint, handoff, and the worker handler's ctx share the one
// clock), SessionTTL evicts idle sessions and reclaims their worker event
// processes, and IdleTimeout is netd's backstop that tears down silent
// connections. All three ride per-shard evloop timers — an idle shard
// arms no standing tick — and each defaults to 0 (disabled).
type WebConfig = okws.Config

// IddOptions tunes the identity server (WebConfig.IddOptions): identity
// cache bound, Argon2id cost, lockout ladder. IddBackoffRung is one rung of
// that ladder.
type (
	IddOptions     = idd.Options
	IddBackoffRung = idd.BackoffRung
)

// WebHandler is a worker's application logic; WebCtx its per-request
// context.
type (
	WebHandler = okws.Handler
	WebCtx     = okws.Ctx
)

// Request and Response are the HTTP messages handlers consume and produce.
type (
	Request  = httpmsg.Request
	Response = httpmsg.Response
)

// Network is the simulated wire remote peers dial into (WebServer.Network).
type Network = netd.Network

// TCPFrontend is a real-socket front end bound to the web server's HTTP
// port (WebServer.ListenTCP). It runs alongside — not instead of — the
// simulated Network: both are netd Transports feeding the same per-shard
// service loops, so a browser on the TCP side and a workload generator on
// the simulated side hit identical demux, login, and worker paths. Close
// the server (or the front end) to tear it down. On Linux an epoll poller
// implements it, one goroutine per netd shard moving bytes only on
// readiness, so ten thousand parked keep-alive connections cost no
// goroutines at all. Other platforms have no real-socket engine:
// WebServer.ListenTCP returns netd.ErrTCPUnsupported and the stack serves
// over the simulated Network only.
type TCPFrontend = netd.TCPFrontend

// LaunchWeb boots the full OKWS stack of Figure 1.
var LaunchWeb = okws.Launch

// HTTPGet issues one authenticated GET over the simulated network — the
// load-generator primitive of the evaluation.
var HTTPGet = workload.Get

// FileServer is the labeled multi-user file server of §5.2–§5.4;
// FileIdentity a registered principal's (uT, uG) pair.
type (
	FileServer   = fs.Server
	FileIdentity = fs.Identity
)

// NewFileServer boots a file server and publishes its port.
var NewFileServer = fs.New

// File-server client calls. Destinations are Port endpoints of the calling
// process (bind the published handle with Process.Port).
var (
	FileRegister = fs.Register
	FileCreate   = fs.Create
	FileWrite    = fs.Write
	FileRead     = fs.Read
	FileList     = fs.List
)

// Parsers for file-server replies.
var (
	ParseFileReadReply  = fs.ParseReadReply
	ParseFileWriteReply = fs.ParseWriteReply
	ParseFileListReply  = fs.ParseListReply
)

// FileServerEnv is the environment key under which the file server
// publishes its request port.
const FileServerEnv = fs.EnvName
