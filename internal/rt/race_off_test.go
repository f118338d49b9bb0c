//go:build !race

package rt

const raceDetector = false
