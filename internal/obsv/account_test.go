package obsv

import (
	"strings"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

func TestMeterCapturesAllocsAndParActivity(t *testing.T) {
	m := StartMeter("test-op")
	var sink [][]byte
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	sum := 0
	par.For(10000, par.Opt{Name: "obsv-test"}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	acct := m.Stop(10000)
	_ = sink
	_ = sum

	if acct.Op != "test-op" {
		t.Errorf("Op = %q", acct.Op)
	}
	if acct.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", acct.Wall)
	}
	if acct.AllocBytes < 100*16<<10 {
		t.Errorf("AllocBytes = %d, want >= %d", acct.AllocBytes, 100*16<<10)
	}
	if acct.AllocObjects < 100 {
		t.Errorf("AllocObjects = %d, want >= 100", acct.AllocObjects)
	}
	if acct.ParInvocations < 1 {
		t.Errorf("ParInvocations = %d, want >= 1", acct.ParInvocations)
	}
	if acct.ParTasks < 10000 {
		t.Errorf("ParTasks = %d, want >= 10000", acct.ParTasks)
	}
	if acct.ParChunks < 1 {
		t.Errorf("ParChunks = %d, want >= 1", acct.ParChunks)
	}
	if acct.TEPS() <= 0 {
		t.Errorf("TEPS = %v, want > 0", acct.TEPS())
	}
}

func TestAccountTEPS(t *testing.T) {
	a := Account{Items: 1000, Wall: time.Second}
	if got := a.TEPS(); got != 1000 {
		t.Errorf("TEPS = %v, want 1000", got)
	}
	if (Account{}).TEPS() != 0 {
		t.Error("zero account TEPS should be 0")
	}
}

func TestAccountSpanAttrsAndPublish(t *testing.T) {
	a := Account{Op: "k", Wall: time.Millisecond, Items: 42, AllocBytes: 7}
	attrs := a.SpanAttrs()
	keys := map[string]bool{}
	for _, l := range attrs {
		keys[l.Key] = true
	}
	for _, want := range []string{"wall_ns", "items", "teps", "alloc_bytes", "par_chunks"} {
		if !keys[want] {
			t.Errorf("SpanAttrs missing %s", want)
		}
	}

	reg := telemetry.NewRegistry()
	a.Publish(reg)
	found := false
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "obsv_account_") {
			found = true
			break
		}
	}
	if !found {
		t.Error("Publish registered no obsv_account_* gauges")
	}
}
