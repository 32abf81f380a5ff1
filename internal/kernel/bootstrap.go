package kernel

import (
	"asbestos/internal/handle"
	"asbestos/internal/label"
)

// BootstrapGrant names one construction-time capability transfer: granter
// will hand the recipient ⋆ for each handle.
type BootstrapGrant struct {
	From    *Process
	Handles []handle.Handle
}

// BootstrapGrants hands recipient ⋆ for every grant over a throwaway open
// boot port. Fresh ports are closed by capability ({p 0, 3}, Figure 4), so
// the trusted multi-loop services exchange ⋆ for their internal ports this
// way before their loops start; a message to a sibling's port without the
// grant would be silently dropped. Single-threaded construction-time
// plumbing only: it panics on failure, and the boot port never outlives the
// call.
func BootstrapGrants(recipient *Process, grants []BootstrapGrant) {
	if len(grants) == 0 {
		return
	}
	boot := recipient.Open(nil)
	if err := boot.SetLabel(label.Empty(label.L3)); err != nil {
		panic(err)
	}
	for _, g := range grants {
		if err := g.From.Port(boot.Handle()).Send(nil,
			&SendOpts{DecontSend: Grant(g.Handles...)}); err != nil {
			panic(err)
		}
	}
	for range grants {
		d, err := boot.TryRecv()
		if err != nil || d == nil {
			panic("kernel: capability bootstrap failed")
		}
	}
	boot.Dissociate()
}
