package prob

import "liquid/internal/telemetry"

// Kernel telemetry, registered on the telemetry.Default registry. These
// counters record decisions the cost model and the workspace make — which
// way the D&C crossover went, how often scratch had to grow — and nothing
// in this package ever reads them back: telemetry is write-only with
// respect to results (enforced by the telemflow analyzer), so the numbers
// can explain performance without being able to change a PMF.
var (
	// cDCFFTMerges counts D&C segments merged by FFT convolution;
	// cDCDPLeaves counts segments the cost model kept on the quadratic DP.
	cDCFFTMerges = telemetry.NewCounter("prob/dc_fft_merges")
	cDCDPLeaves  = telemetry.NewCounter("prob/dc_dp_leaves")

	// cWorkspaceResets counts kernel invocations (one reset each);
	// cArenaGrows counts resets that had to reallocate the arena, and
	// cArenaFallbacks counts alloc calls that outgrew the arena estimate.
	// A warm workspace shows resets climbing with the other two flat.
	cWorkspaceResets = telemetry.NewCounter("prob/workspace_resets")
	cArenaGrows      = telemetry.NewCounter("prob/arena_grows")
	cArenaFallbacks  = telemetry.NewCounter("prob/arena_fallback_allocs")
)
