package rt

import "time"

// SetTicks replaces socket member m's round ticker (see Member.ticks), for
// the tests outside the package. Call it before Start.
func SetTicks(m *Member, ticks func(time.Duration) (<-chan time.Time, func())) { m.ticks = ticks }

// FreePorts grabs n distinct loopback UDP addresses.
var FreePorts = freePorts
