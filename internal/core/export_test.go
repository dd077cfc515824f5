package core

import "fmt"

// SharedPipeline hands the package's one TestConfig pipeline to the
// examples in package core_test.
var SharedPipeline = sharedPipeline

// RunExperiment runs the registered experiment id over p.
func RunExperiment(p *Pipeline, id string) (Report, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(p), nil
		}
	}
	return Report{}, fmt.Errorf("core: unknown experiment %q", id)
}
