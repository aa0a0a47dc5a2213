package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"bulk/internal/experiments"
	"bulk/internal/rng"
	"bulk/internal/serve"
)

// The bulkd-mix request mix: every hitEvery-th request repeats a key
// asked for at least hitLag requests earlier, which one closed-loop
// connection has long since answered, so it is always a result-cache hit
// and never a coalescing race. Every other request is a quick-mode fig14
// at a fresh seed, a miss. With three misses in four requests, both the
// median and the tail fall among the misses, never on the boundary
// between the two kinds.
const (
	hitEvery = 4
	hitLag   = 3
	// directRenders is how many traced misses are also rendered with
	// serve.WriteOneShot, which calls serve.RenderExhibit with no HTTP and
	// no queue, and compared byte for byte with the daemon's answer. The
	// renders run after the traced phase, outside its clock and profile.
	directRenders = 5
)

const fig14Trailer = "[fig14: verified=true]\n"

// bulkdMix runs the daemon in-process on a loopback listener with one job
// worker and drives it from one closed-loop client connection.
type bulkdMix struct {
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
	seedBase uint64
	pick     *rng.Rand
	n        int
	misses   []uint64            // miss seeds in request order
	bodies   map[uint64][32]byte // miss seed -> SHA-256 of its response
	direct   []uint64            // traced misses still to render directly
	metrics0 daemonMetrics
}

func setupBulkdMix(seed uint64, tr *tracer) (instance, error) {
	r := rng.New(seed)
	b := &bulkdMix{
		srv:    serve.New(serve.Config{Workers: 1}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		// Fresh seeds differ in their low 32 bits and are never 0, which
		// the daemon reads as its default seed.
		seedBase: r.Uint64() &^ 0xffffffff,
		pick:     r,
		bodies:   map[uint64][32]byte{},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { b.served <- b.hs.Serve(ln) }()

	// The warm-up op is one miss, checked against a direct render.
	s := b.seedBase + 1
	b.misses = append(b.misses, s)
	body, err := b.post(tr, "serve.miss", s)
	if err == nil {
		err = b.checkMiss(s, body)
	}
	if err == nil {
		var want []byte
		if want, err = b.render(tr, s); err == nil && !bytes.Equal(body, want) {
			err = errors.New("daemon answer differs from the one-shot render")
		}
	}
	if err == nil {
		b.metrics0, err = b.scrape()
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *bulkdMix) request(seed uint64) string {
	return fmt.Sprintf(`{"kind":"exhibit","exhibit":"fig14","quick":true,"seed":%d}`, seed)
}

// post sends one /run request inside a span and returns the 200 body.
func (b *bulkdMix) post(tr *tracer, spanName string, seed uint64) ([]byte, error) {
	sp := tr.begin(spanName)
	defer tr.end(sp)
	resp, err := b.client.Post(b.base+"/run", "application/json", strings.NewReader(b.request(seed)))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// checkMiss verifies a fresh answer and remembers its bytes.
func (b *bulkdMix) checkMiss(seed uint64, body []byte) error {
	if !bytes.Contains(body, []byte(fig14Trailer)) {
		return fmt.Errorf("seed %d: answer lacks %q", seed, fig14Trailer)
	}
	b.bodies[seed] = sha256.Sum256(body)
	return nil
}

// render runs the exhibit directly, with no HTTP and no queue, into the
// bytes bulksim -notime prints for it.
func (b *bulkdMix) render(tr *tracer, seed uint64) ([]byte, error) {
	cfg := experiments.Quick()
	cfg.Seed = seed
	var out bytes.Buffer
	sp := tr.begin("experiments.fig14_direct")
	err := serve.WriteOneShot(&out, []string{"fig14"}, cfg)
	tr.end(sp)
	return out.Bytes(), err
}

func (b *bulkdMix) op(tr *tracer) (int, func() error, error) {
	b.n++
	if b.n%hitEvery == 0 {
		seed := b.misses[b.pick.Intn(len(b.misses)-hitLag)]
		body, err := b.post(tr, "serve.hit", seed)
		if err != nil {
			return 0, nil, err
		}
		return 1, func() error {
			if sha256.Sum256(body) != b.bodies[seed] {
				return fmt.Errorf("seed %d: repeated request returned different bytes", seed)
			}
			return nil
		}, nil
	}
	seed := b.seedBase + uint64(len(b.misses)) + 1
	b.misses = append(b.misses, seed)
	body, err := b.post(tr, "serve.miss", seed)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil && len(b.direct) < directRenders {
		b.direct = append(b.direct, seed)
	}
	return 1, func() error { return b.checkMiss(seed, body) }, nil
}

// checkLater renders the traced misses kept for it directly and compares
// each with the daemon's answer. It returns how many differ.
func (b *bulkdMix) checkLater(tr *tracer) (failed int) {
	for _, seed := range b.direct {
		want, err := b.render(tr, seed)
		if err == nil && sha256.Sum256(want) != b.bodies[seed] {
			err = fmt.Errorf("seed %d: daemon answer differs from the one-shot render", seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
		}
	}
	return failed
}

// daemonMetrics is the part of GET /metrics the benchmark reads.
type daemonMetrics struct {
	Jobs struct {
		RejectedQueue    uint64 `json:"rejected_queue_full"`
		RejectedDraining uint64 `json:"rejected_draining"`
		RejectedInvalid  uint64 `json:"rejected_invalid"`
		CellsExecuted    uint64 `json:"cells_executed"`
		CellsCached      uint64 `json:"cells_cached"`
		CellsCoalesced   uint64 `json:"cells_coalesced"`
	} `json:"jobs"`
	ResultCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"result_cache"`
	Bus struct {
		TotalBytes  uint64 `json:"total_bytes"`
		CommitBytes uint64 `json:"commit_bytes"`
	} `json:"bus"`
	SimCache struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		DirtyEvicts uint64 `json:"dirty_evicts"`
		Invals      uint64 `json:"invals"`
	} `json:"sim_cache"`
	Latency struct {
		Run struct {
			P50 float64 `json:"p50_ms"`
		} `json:"run"`
	} `json:"latency_ms"`
}

func (b *bulkdMix) scrape() (daemonMetrics, error) {
	var dm daemonMetrics
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return dm, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dm, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dm); err != nil {
		return dm, fmt.Errorf("/metrics: %w", err)
	}
	return dm, nil
}

// layers reports the counts of the ops after the warm-up op, as the
// differences between two /metrics scrapes.
func (b *bulkdMix) layers(m metrics) error {
	dm, err := b.scrape()
	if err != nil {
		return err
	}
	d0 := &b.metrics0
	j, j0 := &dm.Jobs, &d0.Jobs
	m["serve.cells_executed"] = float64(j.CellsExecuted - j0.CellsExecuted)
	m["serve.cells_cached"] = float64(j.CellsCached - j0.CellsCached)
	m["serve.cells_coalesced"] = float64(j.CellsCoalesced - j0.CellsCoalesced)
	m["serve.rejected"] = float64(j.RejectedQueue + j.RejectedDraining + j.RejectedInvalid -
		j0.RejectedQueue - j0.RejectedDraining - j0.RejectedInvalid)
	hits := dm.ResultCache.Hits - d0.ResultCache.Hits
	m["serve.cache_hit_ratio"] = float64(hits) / float64(hits+dm.ResultCache.Misses-d0.ResultCache.Misses)
	m["serve.daemon_run_p50_ms"] = dm.Latency.Run.P50
	m["bus.total_bytes"] = float64(dm.Bus.TotalBytes - d0.Bus.TotalBytes)
	m["bus.commit_bytes"] = float64(dm.Bus.CommitBytes - d0.Bus.CommitBytes)
	sc, sc0 := &dm.SimCache, &d0.SimCache
	m["cache.hits"] = float64(sc.Hits - sc0.Hits)
	m["cache.misses"] = float64(sc.Misses - sc0.Misses)
	m["cache.evictions"] = float64(sc.Evictions - sc0.Evictions)
	m["cache.dirty_evicts"] = float64(sc.DirtyEvicts - sc0.DirtyEvicts)
	m["cache.invals"] = float64(sc.Invals - sc0.Invals)
	return nil
}

// close stops the listener, the client's connection and the daemon, and
// waits for each.
func (b *bulkdMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.client.CloseIdleConnections()
	_ = b.hs.Shutdown(ctx) // Shutdown only fails when ctx expires; Drain below still runs.
	<-b.served
	_ = b.srv.Drain(ctx) // a Drain that times out has already canceled every job
}
