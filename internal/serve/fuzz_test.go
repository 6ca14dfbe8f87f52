package serve

import "testing"

// FuzzJobBody feeds arbitrary bytes through the strict body decoder
// into every request kind and on through its validator (config / plan,
// which check a request without running it). Neither may panic on any
// input. The corpus starts from the serve tests' bodies.
func FuzzJobBody(f *testing.F) {
	for _, c := range badRequests {
		f.Add([]byte(c.body))
	}
	for _, body := range []string{
		smokeParetoBody,
		clusterReqBody,
		`{"grid":"4x5","class":"medium","objective":"shufopt","seed":3,"iterations":1500,"restarts":1,"population":2,"generations":1}`,
		`{"grid":"3x3","patterns":["uniform","tornado"],"rates":[0.02,0.1],"fidelity":"smoke","energy":true,"seed":9}`,
		`{"grid":"3x3","patterns":["hotspot:weight=0.8:hot=0+8"],"faults":["krouters:k=1:seed=3:at=150"],"seed":0}`,
		`{"grid":"3x3","energy_weights":[0,1.5],"robust_weights":[0,1],"rates":[0.02,0.3],"fidelity":"full"}` + "\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var synth SynthRequest
		if decodeStrict(body, &synth) == nil {
			_, _ = synth.config()
		}
		var matrix MatrixRequest
		if decodeStrict(body, &matrix) == nil {
			_, _ = matrix.plan()
		}
		var pareto ParetoRequest
		if decodeStrict(body, &pareto) == nil {
			_, _ = pareto.plan()
		}
	})
}
