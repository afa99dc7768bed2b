// Fixture: miniature metrics.rs — metric families declared as
// `"pops_*"` literals in table rows, each followed by its labels, with
// decoys the extractor must skip.
metric_rows! { Snapshot;
    /// Requests, "pops_in_a_doc_comment_total" must not register.
    requests: counter ["requests"] => "pops_requests_total" (kind) "Requests, by kind.";
    // "pops_in_a_comment_total" must not register.
    uptime: gauge => "pops_uptime_seconds" "Seconds since start.";
    hits: counter ["cache", "l1", "hits"] => "pops_cache_hits_total" {level: "l1"} "Hits.";
    phase_hits: counter ["cache", "l2", "hits"] => "pops_cache_hits_total" {level: "l2"};
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_families_do_not_register() {
        assert_ne!("pops_test_only_total", "");
    }
}
