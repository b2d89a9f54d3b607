include Mdqa_obs.Jsonl
