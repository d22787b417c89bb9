package experiments

import (
	"strings"
	"testing"
)

// TestOverloadDrillAcceptance is the ISSUE's tentpole acceptance criterion,
// enforced as a test: at 4× sustained oversubscription of a 2-device farm,
// per-VP queues stay under the configured cap, the queued-bytes gauge (the
// daemon's RSS proxy) stays bounded, shed submissions return typed overload
// errors with backoff hints, and the victim's admitted work produces
// byte-identical metrics, trace, and D2H bytes to an uncontended run.
func TestOverloadDrillAcceptance(t *testing.T) {
	res, err := OverloadDrill(4, 3)
	if err != nil {
		t.Fatalf("overload drill: %v\n%s", err, res)
	}

	if res.Sheds == 0 {
		t.Fatal("no submissions shed at 4× oversubscription")
	}
	if res.BadSheds != 0 {
		t.Fatalf("%d sheds lacked a retryable typed overload with a backoff hint", res.BadSheds)
	}
	if res.MaxQueuedJobsSeen > int64(res.CapJobs) {
		t.Fatalf("queue_jobs high-water %d exceeds cap %d", res.MaxQueuedJobsSeen, res.CapJobs)
	}
	if res.MaxQueuedBytesSeen > res.CapBytes {
		t.Fatalf("queue_bytes high-water %d exceeds cap %d", res.MaxQueuedBytesSeen, res.CapBytes)
	}
	if res.MaxQueuedJobsSeen == 0 {
		t.Fatal("no admission reservation was ever held — drill exerted no load")
	}
	if res.LeakJobs != 0 || res.LeakBytes != 0 {
		t.Fatalf("admission reservations leaked: %d jobs, %d bytes", res.LeakJobs, res.LeakBytes)
	}
	if !res.IdenticalD2H || !res.IdenticalMetrics || !res.IdenticalTrace {
		t.Fatalf("victim artifacts differ from uncontended run: d2h=%v metrics=%v trace=%v",
			res.IdenticalD2H, res.IdenticalMetrics, res.IdenticalTrace)
	}
	if !res.HealthyAfter {
		t.Fatal("farm unhealthy after contended pass")
	}
	if res.Metrics.CounterValue("core.admission.shed") == 0 {
		t.Fatal("admission snapshot records no sheds")
	}
	if !strings.Contains(res.String(), "bounded:") {
		t.Fatal("drill report missing boundedness line")
	}
}
