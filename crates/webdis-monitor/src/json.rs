//! JSON rendering for the monitor's read-side views, written through
//! the workspace's one JSON module (`webdis_trace::json`).
//!
//! All state is `BTreeMap`-ordered, so the same monitor state always
//! renders to the same bytes — the property the determinism scenarios
//! pin. Numbers are unsigned integers only; fractional signals travel
//! as fixed-point milli-units.

use webdis_trace::json::{self, ObjWriter, ToJson};

use crate::{AlertLogEntry, Monitor, WindowQuantiles, WindowRow};

impl ToJson for WindowQuantiles {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.p50)
            .field("p95", &self.p95)
            .end();
    }
}

impl ToJson for WindowRow {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("index", &self.index)
            .field("end_us", &self.end_us)
            .field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("quantiles", &self.quantiles)
            .end();
    }
}

impl ToJson for AlertLogEntry {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("seq", &self.seq)
            .field("time_us", &self.time_us)
            .field("window", &self.window)
            .field("rule", &self.rule)
            .field("kind", if self.fired { "fired" } else { "resolved" })
            .field("value_milli", &self.value_milli)
            .field("threshold_milli", &self.threshold_milli)
            .end();
    }
}

impl Monitor {
    /// The windowed series as one JSON document: window geometry, the
    /// total closed count, and the rows still in the ring (oldest
    /// first). Zero-delta entries are omitted from each row, which
    /// keeps quiet windows to a few bytes.
    pub fn series_json(&self) -> String {
        let mut out = String::new();
        ObjWriter::new(&mut out)
            .field("window_us", &self.window_us())
            .field("closed", &self.windows_closed())
            .field("windows", &self.windows()[..])
            .end();
        out
    }

    /// The full alert log as a JSON array, oldest first.
    pub fn alert_log_json(&self) -> String {
        json::write(&self.alert_log()[..])
    }
}
