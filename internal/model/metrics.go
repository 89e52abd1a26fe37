package model

import "repro/internal/obs"

// The process-global ID dictionary's size is exported as a scrape-time
// gauge; together with moma_sim_dict_terms it bounds the resident
// vocabulary of the columnar mapping core. Every mapping interns through
// model.IDs, so the gauge counts a durable repository's replayed ids too.
func init() {
	obs.Default.GaugeFunc("moma_model_dict_ids",
		"Interned object IDs in the process-global model.IDs dictionary, a durable repository's replayed ids included.",
		func() float64 { return float64(IDs.Len()) })
}
