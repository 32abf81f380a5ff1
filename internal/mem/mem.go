// Package mem provides the software virtual-memory substrate for the
// Asbestos emulation: 4 KiB pages, sparse address spaces, and copy-on-write
// views used by event processes (paper §6.2).
//
// The real Asbestos kernel uses x86 page tables; here a page is an explicit
// heap object and a page table is a map. The paper's memory claims (1.5
// pages per cached session, 8 pages per active session) are accounting
// claims about how many pages an event process privately modifies, which
// this model reproduces exactly: a View borrows its base Space's pages and
// copies a page only on first write, keeping "just a list of modified pages
// and the modified pages themselves".
package mem

import "fmt"

// PageSize is the page granularity, matching the paper's 4 KB pages.
const PageSize = 4096

// PageNo identifies a page within an address space.
type PageNo uint32

// Addr is a virtual address within a space.
type Addr uint64

// PageOf returns the page containing a.
func PageOf(a Addr) PageNo { return PageNo(a / PageSize) }

// Page is one 4 KiB page.
type Page [PageSize]byte

// Space is a sparse address space: the base process's memory. Pages are
// allocated on first write. Space is not safe for concurrent use; the
// kernel serializes access (Asbestos is uniprocessor).
type Space struct {
	pages map[PageNo]*Page
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{pages: make(map[PageNo]*Page)}
}

// Pages returns the number of allocated pages.
func (s *Space) Pages() int { return len(s.pages) }

// page returns the page, or nil if never written.
func (s *Space) page(n PageNo) *Page { return s.pages[n] }

// ensure returns the page, allocating it if needed.
func (s *Space) ensure(n PageNo) *Page {
	p := s.pages[n]
	if p == nil {
		p = new(Page)
		s.pages[n] = p
	}
	return p
}

// ReadAt copies len(buf) bytes starting at a into buf. Unallocated pages
// read as zero.
func (s *Space) ReadAt(a Addr, buf []byte) {
	readFrom(func(n PageNo) *Page { return s.page(n) }, a, buf)
}

// WriteAt copies buf into the space starting at a, allocating pages as
// needed.
func (s *Space) WriteAt(a Addr, buf []byte) {
	writeTo(func(n PageNo) *Page { return s.ensure(n) }, a, buf)
}

// Unmap releases every page overlapping [a, a+n).
func (s *Space) Unmap(a Addr, n int) {
	if n <= 0 {
		return
	}
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		delete(s.pages, p)
	}
}

// View is a copy-on-write overlay of a base Space: the memory of one event
// process. Reads fall through to the base; the first write to a page copies
// it into the view's private page list.
//
// Pages discarded by Clean are parked on a small free list and recycled by
// the next copy-on-write fault. The OKWS request loop dirties a dozen
// scratch pages per request and ep_cleans them before yielding; recycling
// turns that per-request page churn — the single largest allocation source
// in the whole server — into reuse of the same arrays. The free list is
// invisible to the paper's accounting: PrivatePages counts only live
// private pages, exactly as before.
type View struct {
	base *Space
	priv map[PageNo]*Page
	free []*Page
}

// viewFreeMax bounds the per-view free list: enough for one request's
// scratch working set. A dormant session keeps its list, and that is not
// small: at 2000 echo sessions the lists held about 2 to 2.4 pages (8 to
// 10 KB) per session beside its 1.4 accounted pages, and ensure's page
// arrays were 27 to 31 MB of a 40 to 46 MB live heap.
const viewFreeMax = 16

// NewView returns a fresh view of base with no private pages.
func NewView(base *Space) *View {
	return &View{base: base, priv: make(map[PageNo]*Page)}
}

// PrivatePages returns how many pages this view has privately modified.
// This is the quantity Figure 6 charges per event process.
func (v *View) PrivatePages() int { return len(v.priv) }

// page resolves a page for reading: private copy first, then base.
func (v *View) page(n PageNo) *Page {
	if p := v.priv[n]; p != nil {
		return p
	}
	return v.base.page(n)
}

// ensure resolves a page for writing, copying from the base on first touch.
// Recycled pages are either overwritten by the base copy or cleared; a
// fresh private page always reads as the base read (or zero), never as
// stale data from a previous incarnation.
func (v *View) ensure(n PageNo) *Page {
	if p := v.priv[n]; p != nil {
		return p
	}
	var p *Page
	if l := len(v.free); l > 0 {
		p = v.free[l-1]
		v.free[l-1] = nil
		v.free = v.free[:l-1]
		if bp := v.base.page(n); bp != nil {
			*p = *bp
		} else {
			*p = Page{}
		}
	} else {
		p = new(Page)
		if bp := v.base.page(n); bp != nil {
			*p = *bp
		}
	}
	v.priv[n] = p
	return p
}

// recycle parks a discarded private page for reuse.
func (v *View) recycle(p *Page) {
	if len(v.free) < viewFreeMax {
		v.free = append(v.free, p)
	}
}

// ReadAt copies len(buf) bytes starting at a into buf.
func (v *View) ReadAt(a Addr, buf []byte) {
	readFrom(func(n PageNo) *Page { return v.page(n) }, a, buf)
}

// WriteAt copies buf into the view starting at a; touched pages become
// private copies.
func (v *View) WriteAt(a Addr, buf []byte) {
	writeTo(func(n PageNo) *Page { return v.ensure(n) }, a, buf)
}

// Clean reverts every page overlapping [a, a+n) to the base process's
// state, discarding private copies. This is the ep_clean system call's
// memory effect (paper §6.1): event processes call it to drop temporary
// modifications — typically the stack — before yielding.
func (v *View) Clean(a Addr, n int) {
	if n <= 0 {
		return
	}
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		if pg := v.priv[p]; pg != nil {
			v.recycle(pg)
			delete(v.priv, p)
		}
	}
}

// CleanAll discards every private page.
func (v *View) CleanAll() {
	for _, pg := range v.priv {
		v.recycle(pg)
	}
	v.priv = make(map[PageNo]*Page)
}

func (v *View) String() string {
	return fmt.Sprintf("view{%d private pages over %d base pages}", len(v.priv), v.base.Pages())
}

// readFrom/writeTo implement page-spanning copies over a page resolver.

func readFrom(page func(PageNo) *Page, a Addr, buf []byte) {
	for len(buf) > 0 {
		n := PageOf(a)
		off := int(a % PageSize)
		c := PageSize - off
		if c > len(buf) {
			c = len(buf)
		}
		if p := page(n); p != nil {
			copy(buf[:c], p[off:off+c])
		} else {
			for i := 0; i < c; i++ {
				buf[i] = 0
			}
		}
		buf = buf[c:]
		a += Addr(c)
	}
}

func writeTo(page func(PageNo) *Page, a Addr, buf []byte) {
	for len(buf) > 0 {
		n := PageOf(a)
		off := int(a % PageSize)
		c := PageSize - off
		if c > len(buf) {
			c = len(buf)
		}
		copy(page(n)[off:off+c], buf[:c])
		buf = buf[c:]
		a += Addr(c)
	}
}

// PageList returns the allocated page numbers in unspecified order.
func (s *Space) PageList() []PageNo {
	out := make([]PageNo, 0, len(s.pages))
	for n := range s.pages {
		out = append(out, n)
	}
	return out
}
