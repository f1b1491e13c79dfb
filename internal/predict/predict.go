// Package predict implements the state prediction task of Section III: the
// LST-GAT model (a sharing graph attention mechanism over the
// spatial-temporal graph followed by an LSTM with a linear read-out,
// Equations (10)–(14)) and the three compared baselines LSTM-MLP, ED-LSTM,
// and GAS-LED, together with training, masked-loss handling, and the
// MAE/MSE/RMSE accuracy metrics of Table III.
package predict

import (
	"math"

	"head/internal/ngsim"
	"head/internal/phantom"
	"head/internal/tensor"
)

// OutputDim is the width of one predicted state: [d_lat, d_lon, v_rel].
const OutputDim = 3

// Prediction is the predicted relative future state of each target
// (Equation (13)): the state at t+1 relative to the reference vehicle at t.
type Prediction [phantom.NumSlots][OutputDim]float64

// Model is a one-step state predictor for the six target vehicles.
type Model interface {
	// Name identifies the model in reports (e.g. "LST-GAT").
	Name() string
	// Predict returns the relative future state of every target.
	Predict(g *phantom.Graph) Prediction
	// TrainBatch performs one optimization step over the batch and
	// returns the mean masked loss.
	TrainBatch(batch []*ngsim.Sample) float64
}

// scaler normalizes node features and targets so networks see O(1) inputs.
// Relative features are divided by (latScale, lonScale, vScale); the raw
// AV rows of Equation (8) are divided by (laneScale, roadScale, vScale).
type scaler struct {
	latScale, lonScale, vScale float64
	laneScale, roadScale       float64
}

func defaultScaler() scaler {
	return scaler{latScale: 16, lonScale: 100, vScale: 25, laneScale: 6, roadScale: 1000}
}

// avNodes marks the node indices that carry raw AV states.
var avNodes = func() map[int]bool {
	m := make(map[int]bool, phantom.NumSlots)
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		m[phantom.SurrounderNode(i, phantom.Slot(phantom.NumSlots-1-int(i)))] = true
	}
	return m
}()

// nodesIntoAt writes one spatial graph's scaled features into the first
// FeatureDim columns of rows [rowBase, rowBase+len(step)) of dst (dst may
// be wider, extra columns are left for the caller), so several graphs can
// stack into one gather matrix.
func (s scaler) nodesIntoAt(dst *tensor.Matrix, rowBase int, step []phantom.Feature) {
	for n, f := range step {
		row := dst.Row(rowBase + n)
		if avNodes[n] {
			row[0] = f[0] / s.laneScale
			row[1] = f[1] / s.roadScale
			row[2] = f[2] / s.vScale
		} else {
			row[0] = f[0] / s.latScale
			row[1] = f[1] / s.lonScale
			row[2] = f[2] / s.vScale
		}
		row[3] = f[3]
	}
}

// targetSeq extracts the scaled per-step feature rows of a single target,
// for the per-vehicle baselines.
func (s scaler) targetSeq(g *phantom.Graph, i phantom.Slot) []*tensor.Matrix {
	seq := make([]*tensor.Matrix, len(g.Steps))
	node := phantom.TargetNode(i)
	for t, step := range g.Steps {
		f := step[node]
		seq[t] = tensor.FromSlice(1, phantom.FeatureDim, []float64{
			f[0] / s.latScale, f[1] / s.lonScale, f[2] / s.vScale, f[3],
		})
	}
	return seq
}

// scaleTruth converts a ground-truth state to network space.
func (s scaler) scaleTruth(t [OutputDim]float64) [OutputDim]float64 {
	return [OutputDim]float64{t[0] / s.latScale, t[1] / s.lonScale, t[2] / s.vScale}
}

// unscaleRow converts one network-space output row back to meters and m/s.
func (s scaler) unscaleRow(row []float64) [OutputDim]float64 {
	return [OutputDim]float64{row[0] * s.latScale, row[1] * s.lonScale, row[2] * s.vScale}
}

// Metrics are the accuracy measures of Table III, computed over all
// unmasked target dimensions in physical units.
type Metrics struct {
	MAE, MSE, RMSE float64
	Count          int
}

// Evaluate computes accuracy metrics of model over ds.
func Evaluate(model Model, ds *ngsim.Dataset) Metrics {
	var m Metrics
	for _, s := range ds.Samples {
		pred := model.Predict(s.Graph)
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			for d := 0; d < OutputDim; d++ {
				err := pred[i][d] - s.Truth[i][d]
				m.MAE += math.Abs(err)
				m.MSE += err * err
				m.Count++
			}
		}
	}
	if m.Count > 0 {
		m.MAE /= float64(m.Count)
		m.MSE /= float64(m.Count)
		m.RMSE = math.Sqrt(m.MSE)
	}
	return m
}

// batchModel is the optional batched-inference fast path (implemented by
// *LSTGAT): one forward for several graphs, each output row bit-identical
// to the corresponding serial Predict.
type batchModel interface {
	PredictBatch(gs []*phantom.Graph, out []Prediction)
}

// EvaluateBatched computes the same accuracy metrics as Evaluate but runs
// inference over groups of batchEnvs samples through the model's
// PredictBatch when it has one. Error terms accumulate in sample order
// either way, and the batched rows are bit-identical to serial Predict, so
// the returned Metrics are byte-identical to Evaluate's for every width.
// batchEnvs <= 1, or a model without PredictBatch, falls back to Evaluate.
func EvaluateBatched(model Model, ds *ngsim.Dataset, batchEnvs int) Metrics {
	bm, ok := model.(batchModel)
	if !ok || batchEnvs <= 1 {
		return Evaluate(model, ds)
	}
	var m Metrics
	graphs := make([]*phantom.Graph, 0, batchEnvs)
	preds := make([]Prediction, batchEnvs)
	for lo := 0; lo < len(ds.Samples); lo += batchEnvs {
		hi := lo + batchEnvs
		if hi > len(ds.Samples) {
			hi = len(ds.Samples)
		}
		graphs = graphs[:0]
		for _, s := range ds.Samples[lo:hi] {
			graphs = append(graphs, s.Graph)
		}
		bm.PredictBatch(graphs, preds[:hi-lo])
		for k, s := range ds.Samples[lo:hi] {
			pred := preds[k]
			for i := 0; i < phantom.NumSlots; i++ {
				if s.Mask[i] {
					continue
				}
				for d := 0; d < OutputDim; d++ {
					err := pred[i][d] - s.Truth[i][d]
					m.MAE += math.Abs(err)
					m.MSE += err * err
					m.Count++
				}
			}
		}
	}
	if m.Count > 0 {
		m.MAE /= float64(m.Count)
		m.MSE /= float64(m.Count)
		m.RMSE = math.Sqrt(m.MSE)
	}
	return m
}
