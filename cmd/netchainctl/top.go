package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"netchain/internal/telemetry"
)

// topLoop is the `netchainctl top` verb: it scrapes the /metrics endpoint
// of every listed -debug-addr each interval and renders a live per-switch
// dashboard — ops/s and drop/error rates from counter deltas, hop latency
// percentiles and queue depths straight from the gauges. Endpoints that
// expose controller or relay series get their own summary lines.
func topLoop(endpoints []string, interval time.Duration, samples int) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("top needs at least one -debug-addr endpoint (host:port)")
	}
	if interval <= 0 {
		interval = time.Second
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	prev := make(map[string]map[string]float64, len(endpoints))
	prevAt := make(map[string]time.Time, len(endpoints))
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for n := 0; samples <= 0 || n < samples; n++ {
		if n > 0 {
			select {
			case <-stop:
				return nil
			case <-tick.C:
			}
		}
		renderTop(endpoints, prev, prevAt)
	}
	return nil
}

// metricsCheck is the `netchainctl metrics-check` verb, built for the CI
// metrics smoke: scrape each endpoint's /metrics, fail if the Prometheus
// text doesn't parse, and — for endpoints exposing switch series — fail
// if any of the required node series is missing.
func metricsCheck(endpoints []string) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("metrics-check needs at least one -debug-addr endpoint (host:port)")
	}
	for _, ep := range endpoints {
		m, err := scrapeMetrics(ep)
		if err != nil {
			return fmt.Errorf("%s: %w", ep, err)
		}
		if _, isNode := m[telemetry.SwitchProcessed]; isNode {
			var missing []string
			for _, name := range telemetry.RequiredNodeSeries {
				if _, ok := m[name]; !ok {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				return fmt.Errorf("%s: required series missing: %v", ep, missing)
			}
		}
		fmt.Printf("%s: ok (%d series)\n", ep, len(m))
	}
	return nil
}

func scrapeMetrics(ep string) (map[string]float64, error) {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(fmt.Sprintf("http://%s/metrics", ep))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return telemetry.ParseProm(resp.Body)
}

func renderTop(endpoints []string, prev map[string]map[string]float64, prevAt map[string]time.Time) {
	fmt.Printf("\n%s\n", time.Now().Format("15:04:05"))
	fmt.Printf("%-22s %9s %9s %8s %8s %6s %8s %8s %8s %8s\n",
		"endpoint", "ops/s", "reads/s", "p50µs", "p99µs", "queue", "drops/s", "errs/s", "items", "regKB")
	var extra []string
	for _, ep := range endpoints {
		m, err := scrapeMetrics(ep)
		if err != nil {
			fmt.Printf("%-22s %s\n", ep, err)
			continue
		}
		now := time.Now()
		dt := 0.0
		if t0, ok := prevAt[ep]; ok {
			dt = now.Sub(t0).Seconds()
		}
		rate := func(name string) float64 {
			if dt <= 0 || prev[ep] == nil {
				return 0
			}
			d := m[name] - prev[ep][name]
			if d < 0 {
				return 0 // restarted process: counter reset
			}
			return d / dt
		}
		if _, isNode := m[telemetry.SwitchProcessed]; isNode {
			drops := rate(telemetry.SwitchRuleDrops)
			errs := rate(telemetry.NodeReadErrors) + rate(telemetry.NodeDecodeErrors) +
				rate(telemetry.NodeTruncatedBatches)
			fmt.Printf("%-22s %9.0f %9.0f %8.1f %8.1f %6.0f %8.1f %8.1f %8.0f %8.0f\n",
				ep,
				rate(telemetry.SwitchProcessed),
				rate(telemetry.SwitchReads),
				m[telemetry.NodeProcNs+"_p50"]/1e3,
				m[telemetry.NodeProcNs+"_p99"]/1e3,
				m[telemetry.NodeQueueDepth],
				drops, errs,
				m[telemetry.SwitchItems],
				m[telemetry.SwitchRegisterBytes]/1024)
		}
		if v, ok := m[telemetry.ControllerSwitches]; ok {
			extra = append(extra, fmt.Sprintf("controller %s: %.0f switches, %.0f repairs, %.0f suspects, %.1f probes/s",
				ep, v, m[telemetry.ControllerRepairs], m[telemetry.MonitorSuspects],
				rate(telemetry.MonitorProbes)))
		}
		if _, ok := m[telemetry.RelayEventsOut]; ok {
			extra = append(extra, fmt.Sprintf("relay %s: %.0f events/s out, %.0f dgrams/s, %.0f subscribers, %.1f dup/s",
				ep, rate(telemetry.RelayEventsOut), rate(telemetry.RelayEgressDatagrams),
				m[telemetry.RelaySubscribers], rate(telemetry.RelayEventsDup)))
		}
		prev[ep] = m
		prevAt[ep] = now
	}
	sort.Strings(extra)
	for _, line := range extra {
		fmt.Println(line)
	}
}
