package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"liquid/internal/telemetry"
)

// daemonLauncher starts liquidd child processes at the daemon's defaults.
type daemonLauncher struct {
	bin     string
	workDir string // where traced runs write the daemon's manifest
}

const startTimeout = 30 * time.Second

func (l daemonLauncher) cold(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	c, err := startChild(nil, l.bin, "-addr", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr, err := c.waitAddr("liquidd: serving on", startTimeout)
	if err == nil {
		err = waitHealthy(ctx, addr)
	}
	d := time.Since(t0)
	if _, serr := c.stop(); err == nil {
		err = serr
	}
	return d, err
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, addr string) error {
	deadline := time.Now().Add(startTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := plainClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy within %v (last error %v)", addr, startTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (l daemonLauncher) start(ctx context.Context, traced bool) (*target, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	manifest := ""
	if traced {
		manifest = filepath.Join(l.workDir, "liquidd-manifest.json")
		_ = os.Remove(manifest) // a stale manifest must not be read back as this run's
		args = append(args, "-pprof", "127.0.0.1:0", "-manifest", manifest)
	}
	c, err := startChild(nil, l.bin, args...)
	if err != nil {
		return nil, err
	}
	addr, err := c.waitAddr("liquidd: serving on", startTimeout)
	pprof := ""
	if err == nil && traced {
		pprof, err = c.waitAddr("pprof: serving on", startTimeout)
	}
	if err == nil {
		err = waitHealthy(ctx, addr)
	}
	if err != nil {
		_, _ = c.stop() // the start failure is the error worth reporting
		return nil, err
	}
	return &target{
		addr:     addr,
		cpu:      c.cpuTime,
		memstats: func(ctx context.Context) (memStats, error) { return scrapeMemStats(ctx, pprof) },
		stop: func() (int64, map[string]uint64, error) {
			ps, err := c.stop()
			_, peak := rusageOf(ps)
			if err != nil || manifest == "" {
				return peak, nil, err
			}
			counters, err := readManifestCounters(manifest)
			return peak, counters, err
		},
	}, nil
}

// readManifestCounters reads the counters of a telemetry manifest.
func readManifestCounters(path string) (map[string]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var man telemetry.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return snapshotCounters(man.Metrics), nil
}

func snapshotCounters(s telemetry.Snapshot) map[string]uint64 {
	c := make(map[string]uint64, len(s.Counters))
	for _, kv := range s.Counters {
		c[kv.Name] = kv.Value
	}
	return c
}
