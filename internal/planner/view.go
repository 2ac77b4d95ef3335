package planner

// View is the JSON rendering of a Plan (GET /v1/graphs/{id}/plan).
// Method and order names round-trip through the job API: posting
// {"method": chosen.method, "order": chosen.order} executes exactly the
// plan's choice.
type View struct {
	Chosen  CandidateView   `json:"chosen"`
	Kernel  KernelView      `json:"kernel"`
	Ranking []CandidateView `json:"ranking"`
	Fit     Fit             `json:"fit"`
}

// KernelView is the JSON rendering of the priced kernel choice. The
// kernel name round-trips through the job API; core_threshold is the
// τ a bit-parallel run would receive. Predicted values come from the
// fitted distribution and the checked-in operation costs, so like the
// ranking they are the same on every host.
type KernelView struct {
	Kernel        string  `json:"kernel"`
	CoreThreshold int32   `json:"core_threshold"`
	CoreVertices  int64   `json:"core_vertices"`
	RowBytes      int64   `json:"row_bytes"`
	CoreShare     float64 `json:"core_share"`
	Gain          float64 `json:"predicted_gain"`
}

func (k KernelPlan) view() KernelView {
	return KernelView{
		Kernel:        k.Kernel.String(),
		CoreThreshold: k.CoreThreshold,
		CoreVertices:  k.CoreVertices,
		RowBytes:      k.RowBytes,
		CoreShare:     k.CoreShare,
		Gain:          k.Gain,
	}
}

// CandidateView is the JSON rendering of one grid cell.
type CandidateView struct {
	Method string `json:"method"`
	Order  string `json:"order"`
	// PerNode is the predicted model operations per non-isolated node
	// (eq. 50); Total is the graph-wide prediction, comparable to a
	// job's model_ops; PredictedNs is Total priced in nanoseconds, the
	// quantity the ranking sorts by.
	PerNode     float64 `json:"predicted_cost_per_node"`
	Total       float64 `json:"predicted_cost"`
	PredictedNs float64 `json:"predicted_ns"`
}

func (c Candidate) view() CandidateView {
	return CandidateView{
		Method:      c.Method.String(),
		Order:       c.Order.String(),
		PerNode:     c.PerNode,
		Total:       c.Total,
		PredictedNs: c.PredictedNs,
	}
}

// View snapshots the plan for JSON rendering.
func (p *Plan) View() View {
	v := View{
		Chosen:  p.Best().view(),
		Kernel:  p.Kernel.view(),
		Ranking: make([]CandidateView, len(p.Ranking)),
		Fit:     p.Fit,
	}
	for i, c := range p.Ranking {
		v.Ranking[i] = c.view()
	}
	return v
}
