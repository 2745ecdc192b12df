//go:build race

package blocking

func init() { raceEnabled = true }
