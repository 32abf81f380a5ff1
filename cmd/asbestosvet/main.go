// Command asbestosvet is the kernel-invariant analyzer suite: a vet tool
// (usable via `go vet -vettool=$(which asbestosvet)` or directly as
// `asbestosvet ./...`) enforcing the repo's privilege and IPC contracts at
// compile time:
//
//	privdrop      every star-level Grant is paired with DropPrivilege
//	ctxrecv       blocking receives take a cancellable context
//
// The contracts themselves are stated in the kernel package doc; each
// analyzer's Doc (see `asbestosvet help`) names its sanctioned escapes and
// waiver syntax.
package main

import (
	"asbestos/internal/analyzers/ctxrecv"
	"asbestos/internal/analyzers/privdrop"
	"asbestos/internal/analyzers/unitchecker"
)

func main() {
	unitchecker.Main(
		privdrop.Analyzer,
		ctxrecv.Analyzer,
	)
}
