package cal

// The launch path's typed error taxonomy. Sweep runners decide what to do
// with a failed launch by errors.Is-ing against these sentinels rather
// than by parsing messages: transient faults are retried, timeouts are
// recorded per point and the sweep continues, a lost device kills the
// whole campaign.

import (
	"errors"
	"fmt"

	"amdgpubench/internal/device"
	"amdgpubench/internal/fault"
	"amdgpubench/internal/sim"
)

var (
	// ErrKernelTimeout marks a launch the watchdog aborted: the wavefront
	// set stopped retiring work within the cycle budget. Recoverable at
	// the sweep level (record the point, keep going), not by retrying —
	// the simulation is deterministic, it would hang again.
	ErrKernelTimeout = errors.New("kernel timeout")
	// ErrDeviceLost marks a device falling off the bus. Fatal: every
	// subsequent launch on the context would fail too.
	ErrDeviceLost = errors.New("device lost")
	// ErrLaunchTransient marks a flaky launch failure (the StreamSDK
	// symptom: a launch that fails once and succeeds when re-issued).
	// Worth bounded retries with backoff.
	ErrLaunchTransient = errors.New("transient launch failure")
)

// LaunchError is the structured failure a launch returns: the taxonomy
// sentinel it wraps, where it happened, and — for watchdog aborts — the
// simulator's stuck-wavefront diagnostic.
type LaunchError struct {
	// Kind is one of the Err* sentinels; errors.Is sees through to it.
	Kind error
	// Arch and Kernel locate the failing launch.
	Arch   device.Arch
	Kernel string
	// Injected lists the faults that struck, when injection caused this.
	Injected fault.Injection
	// Diag is the watchdog's structured diagnostic (timeouts only).
	Diag *sim.WatchdogError
}

// Error renders the failure with its location and diagnostic.
func (e *LaunchError) Error() string {
	msg := fmt.Sprintf("cal: %v: kernel %q on %s", e.Kind, e.Kernel, e.Arch)
	if e.Injected.Any() {
		msg += " (injected: " + e.Injected.String() + ")"
	}
	if e.Diag != nil {
		msg += ": " + e.Diag.Error()
	}
	return msg
}

// Unwrap exposes the taxonomy sentinel to errors.Is.
func (e *LaunchError) Unwrap() error { return e.Kind }

// IsTransient reports whether the error is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrLaunchTransient) }
