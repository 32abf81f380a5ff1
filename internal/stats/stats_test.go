package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfilerBasics(t *testing.T) {
	p := NewProfiler()
	p.Add(CatNetwork, 10*time.Millisecond)
	p.Add(CatNetwork, 5*time.Millisecond)
	p.Add(CatOKWS, time.Millisecond)
	if got := p.Total(CatNetwork); got != 15*time.Millisecond {
		t.Errorf("Total(Network) = %v", got)
	}
	if got := p.Count(CatNetwork); got != 2 {
		t.Errorf("Count(Network) = %d", got)
	}
	if got := p.Total(CatOKDB); got != 0 {
		t.Errorf("Total(OKDB) = %v, want 0", got)
	}
	p.Reset()
	if p.Total(CatNetwork) != 0 || p.Count(CatOKWS) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.Add(CatOther, time.Second) // must not panic
	p.Time(CatOther)()
	if p.Total(CatOther) != 0 || p.Count(CatOther) != 0 {
		t.Error("nil profiler must report zero")
	}
	p.Reset()
}

func TestProfilerTime(t *testing.T) {
	p := NewProfiler()
	stop := p.Time(CatKernelIPC)
	time.Sleep(2 * time.Millisecond)
	stop()
	if p.Total(CatKernelIPC) < time.Millisecond {
		t.Errorf("Time recorded %v, want ≥1ms", p.Total(CatKernelIPC))
	}
}

func TestProfilerConcurrent(t *testing.T) {
	p := NewProfiler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.Add(CatOther, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := p.Count(CatOther); got != 8000 {
		t.Errorf("concurrent Count = %d, want 8000", got)
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range Categories() {
		if strings.HasPrefix(c.String(), "Category(") {
			t.Errorf("category %d has no name", int(c))
		}
	}
	if len(Categories()) != int(numCategories) {
		t.Errorf("Categories() returns %d, want %d", len(Categories()), numCategories)
	}
}

func TestKcycles(t *testing.T) {
	// 1 µs at 2.8 GHz = 2800 cycles = 2.8 Kcycles.
	if got := Kcycles(time.Microsecond); got < 2.79 || got > 2.81 {
		t.Errorf("Kcycles(1µs) = %v, want 2.8", got)
	}
	p := NewProfiler()
	p.Add(CatOKWS, time.Microsecond)
	if got := p.KcyclesPer(CatOKWS, 2); got < 1.39 || got > 1.41 {
		t.Errorf("KcyclesPer = %v, want 1.4", got)
	}
	if p.KcyclesPer(CatOKWS, 0) != 0 {
		t.Error("KcyclesPer with n=0 must be 0")
	}
}

func TestMemReport(t *testing.T) {
	m := MemReport{KernelBytes: 4096, UserPages: 2}
	if got := m.TotalPages(); got != 3.0 {
		t.Errorf("TotalPages = %v, want 3.0", got)
	}
	if !strings.Contains(m.String(), "3.0 pages") {
		t.Errorf("String = %q", m.String())
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a    long-header") {
		t.Errorf("header misaligned: %q", lines[0])
	}
}
