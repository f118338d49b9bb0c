//go:build race

package rt

// raceDetector reports that the race detector is on: it allocates on paths
// the exact allocation budgets count.
const raceDetector = true
