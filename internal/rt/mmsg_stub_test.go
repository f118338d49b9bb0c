//go:build !linux || !(amd64 || arm64)

package rt

import "sync/atomic"

// mappedSets stays 0 where no receive set is ever mapped.
var mappedSets atomic.Int64
