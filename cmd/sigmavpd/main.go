// Command sigmavpd runs the ΣVP host service as a standalone daemon: VPs in
// other processes connect over TCP (the paper's socket flavour of the IPC
// manager) and multiplex this process's simulated host GPUs. Pair it with
// `vpsim -connect <addr>`.
//
// The daemon has one shape: it always serves a GPU farm (core.MultiService)
// through one listener, and each VP is assigned to a device by the -placement
// policy at its first request (hello), invisibly to the client. -gpus sizes
// the farm — an integer count of -arch devices ("-gpus 4") or a
// comma-separated preset list ("-gpus quadro,k520"); unset, the farm has one
// -arch device, exactly what "-gpus 1" serves.
//
// With -http, the daemon also serves an observability endpoint:
//
//	GET /metrics  — the farm's counters, gauges and histograms as JSON:
//	                per-device families namespaced "gpu<i>." with unprefixed
//	                aggregates alongside (a one-device farm carries both, with
//	                equal values); the wall-clock host families
//	                (core.exec/admission/migrate.*, ipc.server.*) sit beside
//	                the deterministic simulated ones. A scrape reads the
//	                instruments as they stand: it neither waits behind nor
//	                runs the devices' batches
//	GET /trace    — the merged timeline (span, per-engine utilization, the
//	                records with each job's VP, kind, submit and plan times,
//	                and how many records the bounded per-device logs dropped)
//	                as JSON, engines labeled "gpu<i>/<engine>"; like a
//	                scrape it reads the timeline as it stands
//
// Usage:
//
//	sigmavpd [-listen 127.0.0.1:7075] [-http ADDR] [-arch quadro|k520|tegra] [-gpus N|LIST] [-placement POLICY] [-baseline]
//	         [-max-queued N] [-max-queued-bytes N] [-farm-max-queued N] [-farm-max-queued-bytes N] [-rate R] [-burst N] [-fair N]
//	         [-restore FILE] [-checkpoint-out FILE]
//
// The admission flags bound what guests may keep in flight (0 = unlimited):
// -max-queued/-max-queued-bytes cap each VP's admitted jobs and pinned host
// bytes, -farm-max-queued/-farm-max-queued-bytes cap the farm-wide totals,
// -rate/-burst token-bucket each VP's submission rate, and -fair caps how many
// jobs one VP contributes per dispatched batch (weighted fair dequeue). Shed
// requests receive a typed, retryable overload response with a backoff hint;
// the cudart client honours the hint and resubmits transparently.
//
// Checkpoint/restore and live migration (DESIGN.md §15): -checkpoint-out
// serializes every VP's device-side state (allocations, buffer bytes, stream
// clocks) to a file during shutdown, and -restore replays such a file at
// startup, so a daemon restart resumes its fleet where it left off. A VP moves
// between devices when a client sends an ipc.MigrateReq (there is no
// background policy loop; DESIGN.md §15 says why). Clients never observe a
// migration beyond latency: guest pointers stay valid (the VP's pointer table
// on the target translates them if its arena cannot honour the original
// address, and refuses any pointer the VP does not own) and in-flight jobs
// drain first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7075", "TCP listen address")
	httpAddr := flag.String("http", "", "serve /metrics and /trace on this address (empty = disabled)")
	archName := flag.String("arch", "quadro", "host GPU preset: quadro, k520, or tegra")
	gpusFlag := flag.String("gpus", "1", "host GPUs to serve: a device count (of -arch) or a comma-separated preset list (empty = 1)")
	placementName := flag.String("placement", "round-robin", "multi-GPU placement policy: round-robin, least-loaded, or mem-aware")
	baseline := flag.Bool("baseline", false, "disable the optimizations (serialized dispatch)")
	grace := flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
	metricsOut := flag.String("metrics-out", "", "write a final metrics snapshot (JSON) to this file on shutdown")
	maxQueued := flag.Int("max-queued", 0, "per-VP admission cap on queued jobs (0 = unlimited)")
	maxQueuedBytes := flag.Int64("max-queued-bytes", 0, "per-VP admission cap on queued payload bytes (0 = unlimited)")
	farmMaxQueued := flag.Int("farm-max-queued", 0, "farm-wide admission cap on queued jobs across all devices (0 = unlimited)")
	farmMaxQueuedBytes := flag.Int64("farm-max-queued-bytes", 0, "farm-wide admission cap on queued payload bytes (0 = unlimited)")
	rate := flag.Float64("rate", 0, "per-VP sustained submission rate limit in jobs/second (0 = unlimited)")
	burst := flag.Int("burst", 0, "token-bucket burst for -rate (0 = derived from the rate)")
	fair := flag.Int("fair", 0, "fair-dequeue share: max jobs one VP contributes per dispatched batch (0 = unlimited)")
	restorePath := flag.String("restore", "", "restore device-side VP state from this checkpoint file at startup")
	checkpointOut := flag.String("checkpoint-out", "", "write a checkpoint of device-side VP state to this file on shutdown")
	flag.Parse()

	opts := core.DefaultOptions()
	hostArch, err := arch.Preset(*archName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigmavpd: %v\n", err)
		os.Exit(2)
	}
	opts.Arch = hostArch
	if *baseline {
		opts.Policy = sched.PolicyFIFO
		opts.Coalesce = false
	}
	if *httpAddr != "" {
		// /trace is only useful with the timeline recorder on.
		opts.Trace = true
	}
	opts.Admission = core.AdmissionOptions{
		MaxQueuedJobs:      *maxQueued,
		MaxQueuedBytes:     *maxQueuedBytes,
		FarmMaxQueuedJobs:  *farmMaxQueued,
		FarmMaxQueuedBytes: *farmMaxQueuedBytes,
		Rate:               *rate,
		Burst:              *burst,
	}
	opts.FairShare = *fair

	gpus, err := parseGPUs(*gpusFlag, hostArch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigmavpd: -gpus: %v\n", err)
		os.Exit(2)
	}
	placement, err := core.ParsePlacement(*placementName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigmavpd: -placement: %v\n", err)
		os.Exit(2)
	}
	ms, err := core.NewMultiServicePlaced(opts, gpus, placement)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigmavpd: %v\n", err)
		os.Exit(2)
	}
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = g.Name
	}

	if *restorePath != "" {
		ck, err := core.LoadCheckpoint(*restorePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigmavpd: -restore: %v\n", err)
			os.Exit(1)
		}
		if err := ms.Restore(ck); err != nil {
			fmt.Fprintf(os.Stderr, "sigmavpd: -restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sigmavpd: restored %d VPs from %s\n", len(ck.VPs), *restorePath)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigmavpd:", err)
		os.Exit(1)
	}
	// ServeEndpoint wires DisconnectVP (not UnregisterVP) as the disconnect
	// hook: a VP whose connection dies mid-batch has its orphaned jobs
	// cancelled instead of wedging the batching predicate.
	srv := ipc.ServeEndpoint(l, ms)
	srv.SetMetrics(ms.Metrics()) // ipc.server.*, a host family of the farm registry
	fmt.Printf("sigmavpd: serving %d GPUs [%s], %s placement on %s (optimizations %v)\n",
		len(gpus), strings.Join(names, ", "), placement, srv.Addr(), !*baseline)

	var obs *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sigmavpd: -http:", err)
			os.Exit(1)
		}
		obs = &http.Server{Handler: buildMux(ms)}
		go obs.Serve(hl)
		fmt.Printf("sigmavpd: observability on http://%s (/metrics, /trace)\n", hl.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("sigmavpd: %v: draining (grace %v)\n", s, *grace)
	if err := shutdown(srv, obs, ms, *grace, *checkpointOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "sigmavpd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Printf("sigmavpd: shut down; simulated device time %.3f ms\n", ms.Sync()*1e3)
}

// parseGPUs decodes the -gpus flag: an integer replicates the -arch device,
// a comma-separated list names presets per device. An empty spec reads as
// "1": `-gpus ""` was the single-device spelling while the flag's default was
// empty, and wrapper scripts pass `-gpus "$GPUS"`.
func parseGPUs(spec string, def arch.GPU) ([]arch.GPU, error) {
	if spec == "" {
		spec = "1"
	}
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("device count %d < 1", n)
		}
		gpus := make([]arch.GPU, n)
		for i := range gpus {
			gpus[i] = def
		}
		return gpus, nil
	}
	var gpus []arch.GPU
	for _, name := range strings.Split(spec, ",") {
		g, err := arch.Preset(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		gpus = append(gpus, g)
	}
	return gpus, nil
}

// shutdown drains the daemon: the listener closes immediately (no new VPs),
// in-flight requests get up to grace to finish, and only then — once every
// serve loop has exited and its final counters are recorded — is the metrics
// snapshot flushed. Before this sequence existed the daemon died mid-frame
// on SIGINT, which clients observed as a decode error instead of a clean
// disconnect.
func shutdown(srv *ipc.Server, obs *http.Server, ms *core.MultiService, grace time.Duration, checkpointOut, metricsOut string) error {
	if obs != nil {
		obs.Close()
	}
	if err := srv.Shutdown(grace); err != nil {
		return err
	}
	if checkpointOut != "" {
		ck, err := ms.Checkpoint()
		if err != nil {
			return err
		}
		if err := core.SaveCheckpoint(checkpointOut, ck); err != nil {
			return err
		}
		fmt.Printf("sigmavpd: checkpointed %d VPs to %s\n", len(ck.VPs), checkpointOut)
	}
	if metricsOut == "" {
		return nil
	}
	// Scrape does not drain: every batch's accounting lands first.
	ms.Drain()
	data, err := ms.Scrape().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(metricsOut, append(data, '\n'), 0o644)
}

// traceView is the /trace response shape: span and utilization, then the
// timeline's records and dropped count.
type traceView struct {
	SpanStart   float64            `json:"span_start"`
	SpanEnd     float64            `json:"span_end"`
	Utilization map[string]float64 `json:"utilization"`
	trace.Timeline
}

// buildMux wires the observability endpoints over the farm.
func buildMux(ms *core.MultiService) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		data, err := ms.Scrape().JSON()
		writeJSON(w, data, err)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		tl := ms.MergedTrace()
		if tl == nil {
			http.Error(w, "trace disabled", http.StatusNotFound)
			return
		}
		view := traceView{Utilization: tl.Utilization(), Timeline: *tl}
		view.SpanStart, view.SpanEnd = tl.Span()
		data, err := json.MarshalIndent(view, "", "  ")
		writeJSON(w, data, err)
	})
	return mux
}

// writeJSON sends an endpoint's rendered body, or a 500 if rendering failed.
func writeJSON(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
