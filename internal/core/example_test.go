package core_test

import (
	"fmt"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// A three-member group exchanges causally related messages inside the
// deterministic simulator: member 1 answers member 0's question and labels
// the dependency, so every member processes question before answer.
func ExampleCluster() {
	c, err := core.NewCluster(core.ClusterConfig{
		Config: core.Config{N: 3, K: 2, R: 5, SelfExclusion: true},
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}

	var question mid.MID
	_, err = c.Run(core.RunOptions{
		MaxRounds: 60,
		MinRounds: 8,
		OnRound: func(round int) {
			switch round {
			case 0:
				question, _ = c.Submit(0, []byte("breakfast?"), nil)
			case 2:
				// By now member 1 has processed the question and may
				// causally answer it.
				_, _ = c.Submit(1, []byte("pancakes"), mid.DepList{question})
			}
		},
		StopWhenQuiescent: true,
		DrainSubruns:      2,
	})
	if err != nil {
		panic(err)
	}

	for i := 0; i < 3; i++ {
		log := c.Log[i]
		fmt.Printf("member %d processed %v then %v\n", i, log[0], log[1])
	}
	// Output:
	// member 0 processed p0#1 then p1#1
	// member 1 processed p0#1 then p1#1
	// member 2 processed p0#1 then p1#1
}
