//! Markdown rendering of figure reports: one section per report, and
//! [`document`], the whole of EXPERIMENTS.md.

use crate::Context;

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Experiment id (`f5`, `t2`, `s31`, ...).
    pub id: &'static str,
    /// Human title, matching the paper's caption.
    pub title: &'static str,
    /// Rendered lines (tables, series, annotations).
    pub lines: Vec<String>,
    /// Key numbers: `(name, paper value if stated, measured value)`.
    pub checks: Vec<Check>,
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub name: String,
    /// The paper's value, if the paper states one (else None → shape-only).
    pub paper: Option<f64>,
    /// The measured value on the regenerated corpus.
    pub measured: f64,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Self {
            id,
            title,
            lines: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Appends a rendered line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records a paper-vs-measured check.
    pub fn check(&mut self, name: impl Into<String>, paper: Option<f64>, measured: f64) {
        self.checks.push(Check {
            name: name.into(),
            paper,
            measured,
        });
    }

    /// The paper's name for the experiment: `t2` → `Table 2`, `f5` →
    /// `Fig. 5`, `s31` → `§3.1`.
    fn caption(&self) -> String {
        match self.id.split_at(1) {
            ("t", n) => format!("Table {n}"),
            ("f", n) => format!("Fig. {n}"),
            ("s", n) => format!("§{}.{}", &n[..1], &n[1..]),
            _ => self.id.to_string(),
        }
    }

    /// Renders the report as one markdown section: a heading, the
    /// paper-anchored checks as a table, the shape-only checks as bullets
    /// and every rendered line in one fenced block.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n", self.caption(), self.title);
        let table: String = self.checks.iter().filter_map(Check::row).collect();
        if !table.is_empty() {
            out += "\n| quantity | paper | measured | verdict |\n|---|---:|---:|---|\n";
            out += &table;
        }
        let mut bullets = String::new();
        for c in self.checks.iter().filter(|c| c.paper.is_none()) {
            bullets += &format!(
                "* {}: measured {} (shape/scale only)\n",
                c.name,
                g4(c.measured)
            );
        }
        if !bullets.is_empty() {
            out += "\n";
            out += &bullets;
        }
        if !self.lines.is_empty() {
            out += &format!("\n```\n{}\n```\n", self.lines.join("\n"));
        }
        out
    }
}

impl Check {
    /// Whether the measured value lies within ±35% of the paper's value,
    /// or within ±0.05 when that band is wider; `None` for a shape-only
    /// check. The one tolerance rule: every verdict and summary reads it.
    pub fn within(&self) -> Option<bool> {
        let p = self.paper?;
        Some((self.measured - p).abs() <= (p.abs() * 0.35).max(0.05))
    }

    /// The check's table row, `None` for a shape-only check.
    fn row(&self) -> Option<String> {
        let verdict = if self.within()? { "within" } else { "DEVIATES" };
        let (name, paper, measured) = (&self.name, g4(self.paper?), g4(self.measured));
        Some(format!("| {name} | {paper} | {measured} | {verdict} |\n"))
    }
}

/// The whole of EXPERIMENTS.md for `reports`, regenerated on `ctx`: the
/// scenario, the tolerance rule and the summary count, one section per
/// report, then every check outside the tolerance. It holds no date and
/// no timing, so the same corpus always gives the same bytes.
pub fn document(ctx: &Context, reports: &[FigureReport]) -> String {
    let (mut total, mut deviations) = (0, Vec::new());
    for r in reports {
        for c in &r.checks {
            total += usize::from(c.paper.is_some());
            if let (Some(paper), Some(false)) = (c.paper, c.within()) {
                let (caption, paper, measured) = (r.caption(), g4(paper), g4(c.measured));
                deviations.push(format!(
                    "* {caption}, {}: paper {paper}, measured {measured}",
                    c.name
                ));
            }
        }
    }
    let within = total - deviations.len();
    if deviations.is_empty() {
        deviations.push("None.".into());
    }
    let sections: String = reports
        .iter()
        .map(|r| format!("\n{}", r.render()))
        .collect();
    let c = &ctx.config;
    let updates = ctx.analyzer.corpus().updates.len();
    let samples = ctx.analyzer.clean_report().total;
    format!(
        "# EXPERIMENTS — paper vs measured\n\n\
         Printed by `figures` (crate `rtbh-bench`) for a simulated corpus of {} virtual days, \
         {} members and {} planted RTBH events (seed {:#x}): {updates} BGP updates and \
         {samples} flow samples.\n\n\
         A check is within tolerance when the measured value lies within ±35% of the paper's \
         value, or within ±0.05 when that is wider. Shape-only checks have no paper value.\n\n\
         **Summary: {within}/{total} paper-anchored checks within tolerance.** \
         The others are listed under Deviations.\n{sections}\n## Deviations\n\n{}\n\n\
         DESIGN.md §9 explains the calibration behind these numbers and the deviations.\n",
        c.days,
        c.members,
        c.total_events(),
        c.seed,
        deviations.join("\n"),
    )
}

/// Formats `v` as C's `%.4g`: four significant digits, trailing zeros
/// dropped, and exponent notation when the decimal exponent is below −4
/// or above 3.
fn g4(v: f64) -> String {
    let trim = |s: &str| {
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s.to_string()
        }
    };
    let sci = format!("{v:.3e}");
    // NaN and the infinities print no exponent: they take the fixed branch.
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let exp: i32 = exp.parse().expect("`{:e}` writes an integer exponent");
    if (-4..4).contains(&exp) {
        trim(&format!("{v:.*}", (3 - exp) as usize))
    } else {
        format!("{}e{exp:+03}", trim(mantissa))
    }
}

/// A tiny ASCII sparkline for a numeric series (peak-normalised).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len().min(80));
    }
    // Downsample to at most 80 columns.
    let cols = values.len().min(80);
    let chunk = values.len().div_ceil(cols);
    values
        .chunks(chunk)
        .map(|c| {
            let v = c.iter().copied().fold(0.0f64, f64::max);
            let idx = ((v / max) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Formats an ECDF as a quantile row.
pub fn cdf_row(label: &str, cdf: &rtbh_stats::Ecdf) -> String {
    if cdf.is_empty() {
        return format!("{label}: (empty)");
    }
    let q = |p: f64| cdf.quantile(p).unwrap_or(f64::NAN);
    format!(
        "{label}: n={} min={:.3} q25={:.3} median={:.3} q75={:.3} q90={:.3} max={:.3}",
        cdf.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_checks() {
        let mut r = FigureReport::new("s31", "test");
        r.line("series here");
        r.check("median /32 drop rate", Some(0.53), 0.51);
        r.check("far off", Some(0.32), 0.44);
        r.check("shape only", None, 3_328_226.0);
        assert_eq!(
            r.render(),
            "## §3.1 — test\n\n\
             | quantity | paper | measured | verdict |\n|---|---:|---:|---|\n\
             | median /32 drop rate | 0.53 | 0.51 | within |\n\
             | far off | 0.32 | 0.44 | DEVIATES |\n\n\
             * shape only: measured 3.328e+06 (shape/scale only)\n\n\
             ```\nseries here\n```\n"
        );
    }

    #[test]
    fn within_holds_the_tolerance_band() {
        let check = |paper, measured| Check {
            name: String::new(),
            paper,
            measured,
        };
        assert_eq!(check(None, 1.0).within(), None);
        // ±35% of the paper value...
        assert_eq!(check(Some(10.0), 13.4).within(), Some(true));
        assert_eq!(check(Some(10.0), 13.6).within(), Some(false));
        // ...or ±0.05 when that is wider.
        assert_eq!(check(Some(0.0001), 0.05).within(), Some(true));
        assert_eq!(check(Some(0.0001), 0.06).within(), Some(false));
        assert_eq!(check(Some(0.32), 0.44).within(), Some(false));
    }

    #[test]
    fn g4_matches_printf() {
        let cases = [
            (0.0, "0"),
            (1.0, "1"),
            (0.5, "0.5"),
            (0.9867, "0.9867"),
            (0.05882352941, "0.05882"),
            (0.00012024, "0.0001202"),
            (0.000012024, "1.202e-05"),
            (3.9156, "3.916"),
            (864.0, "864"),
            (9999.4, "9999"),
            (9999.5, "1e+04"),
            (17176.0, "1.718e+04"),
            (-0.125, "-0.125"),
        ];
        for (v, text) in cases {
            assert_eq!(g4(v), text, "{v}");
        }
    }

    #[test]
    fn sparkline_handles_flat_and_peaky() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.contains('█'));
    }

    #[test]
    fn sparkline_downsamples_long_series() {
        let values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        assert!(sparkline(&values).chars().count() <= 80);
    }

    #[test]
    fn cdf_row_renders() {
        let cdf: rtbh_stats::Ecdf = (1..=10).map(|i| i as f64).collect();
        let row = cdf_row("x", &cdf);
        assert!(row.contains("n=10"));
        assert!(row.contains("median=5.5"));
        let empty = rtbh_stats::Ecdf::new(Vec::new());
        assert!(cdf_row("y", &empty).contains("empty"));
    }
}

rtbh_json::impl_json! { serialize struct Check { name, paper, measured } }

rtbh_json::impl_json! { serialize struct FigureReport { id, title, lines, checks } }
