//! The paper's fixed topologies, reconstructed so the engine's traces can
//! be checked against the published figures.
//!
//! Each function returns the hosted web; the matching DISQL text is
//! provided as a companion constant (this crate deliberately does not
//! depend on the query-language crate).

use webdis_model::Url;

use crate::hosted::{HostedWeb, PageBuilder};

/// Node `i`'s URL in the Figure 1 / Figure 5 webs: every node sits on its
/// own site (`n<i>.test`), so every link between nodes is global unless
/// stated otherwise.
pub fn fig_node(i: usize) -> Url {
    Url::from_parts(&format!("n{i}.test"), 80, "/")
}

/// The DISQL query of Figures 1 and 5: `Q = S G·(G|L) q1 (G|L) q2`, with
/// `q1` = "title contains hub" and `q2` = "text contains answer".
pub const FIG_QUERY: &str = r#"
    select d1.url, d2.url
    from document d1 such that "http://n1.test/" G·(G|L) d1,
    where d1.title contains "hub"
         document d2 such that d1 (G|L) d2,
    where d2.text contains "answer"
"#;

/// The web traversal of **Figure 1**, for `Q = S G·(G|L) q1 (G|L) q2`:
///
/// ```text
/// roles: 1,2,3 PureRouters; 4,5,6,8 answer; 7 evaluates q1 and fails.
///
///   1 ─G→ 2 ─G→ 4            4 answers q1, then forwards for q2:
///   1 ─G→ 3 ─G→ 5            4 ─G→ 6, 4 ─G→ 8   (6, 8 answer q2)
///         3 ─G→ 7            5 answers q1: 5 ─G→ 4  → 4 answers q2
///                            7 fails q1 → dead end
/// ```
///
/// Node 4 therefore acts as a ServerRouter **twice** — once for `q1`
/// (reached via 2) and once for `q2` (reached via 5) — and node 7 is the
/// dead end, exactly as the paper describes under Figure 1.
pub fn figure1() -> HostedWeb {
    let mut web = HostedWeb::new();
    let n = fig_node;
    // q1 needle: "hub" in the title. q2 needle: "answer" in the text.
    web.insert(
        n(1),
        PageBuilder::new("node 1 start")
            .link(&n(2).to_string(), "to 2")
            .link(&n(3).to_string(), "to 3")
            .build(),
    );
    web.insert(
        n(2),
        PageBuilder::new("node 2 router")
            .link(&n(4).to_string(), "to 4")
            .build(),
    );
    web.insert(
        n(3),
        PageBuilder::new("node 3 router")
            .link(&n(5).to_string(), "to 5")
            .link(&n(7).to_string(), "to 7")
            .build(),
    );
    web.insert(
        n(4),
        PageBuilder::new("node 4 hub")
            .para("node 4 carries the answer token")
            .link(&n(6).to_string(), "to 6")
            .link(&n(8).to_string(), "to 8")
            .build(),
    );
    web.insert(
        n(5),
        PageBuilder::new("node 5 hub")
            .para("no ans token here; links back into 4")
            .link(&n(4).to_string(), "to 4")
            .build(),
    );
    web.insert(
        n(6),
        PageBuilder::new("node 6 leaf")
            .para("the answer lives here too")
            .build(),
    );
    web.insert(
        n(7),
        PageBuilder::new("node 7 plain") // no "hub": q1 fails here
            .para("nothing of interest")
            .link(&n(8).to_string(), "to 8")
            .build(),
    );
    web.insert(
        n(8),
        PageBuilder::new("node 8 leaf")
            .para("another answer page")
            .build(),
    );
    web
}

/// The **Figure 5** web: the same query, but with five distinct paths into
/// node 4, producing the paper's five visits `a`–`e`:
///
/// * `a` — `1 ─G→ 4`: state `(2, G|L)` (PureRouter visit);
/// * `b` — `1 ─G→ 2 ─G→ 4`: state `(2, N)` (evaluates `q1`);
/// * `c,d,e` — from the `q1`-answerers 5, 6, 7, each `─G→ 4`: state
///   `(1, N)` three times — *the same state of computation*, so with the
///   log table only `c` is evaluated and `d`, `e` are dropped.
pub fn figure5() -> HostedWeb {
    let mut web = HostedWeb::new();
    let n = fig_node;
    web.insert(
        n(1),
        PageBuilder::new("node 1 start")
            .link(&n(4).to_string(), "to 4 direct") // visit a
            .link(&n(2).to_string(), "to 2")
            .link(&n(3).to_string(), "to 3")
            .build(),
    );
    web.insert(
        n(2),
        PageBuilder::new("node 2 router")
            .link(&n(4).to_string(), "to 4") // visit b
            .link(&n(5).to_string(), "to 5")
            .build(),
    );
    web.insert(
        n(3),
        PageBuilder::new("node 3 router")
            .link(&n(6).to_string(), "to 6")
            .link(&n(7).to_string(), "to 7")
            .build(),
    );
    // 5, 6, 7 all answer q1 and all point at node 4 → visits c, d, e.
    for i in [5usize, 6, 7] {
        web.insert(
            n(i),
            PageBuilder::new(&format!("node {i} hub"))
                .para("q1 satisfied here")
                .link(&n(4).to_string(), "to 4")
                .build(),
        );
    }
    web.insert(
        n(4),
        PageBuilder::new("node 4 hub")
            .para("node 4 has the answer")
            .build(),
    );
    web
}

/// The paper's **Example Query 1** (Section 2.3): "Extract all the global
/// links in the HTML documents on the Database Systems Lab web-server
/// starting from the lab's homepage." Runs against the campus web, whose
/// DSL site the reconstruction includes.
pub const EXAMPLE_QUERY_1: &str = r#"
    select a.base, a.href
    from document d such that "http://dsl.serc.iisc.ernet.in" L* d
         anchor a
    where a.ltype = "G"
"#;

// --------------------------------------------------------------------------
// The Section 5 campus web (Figures 7 and 8).
// --------------------------------------------------------------------------

/// The DISQL text of the paper's Example Query 2, run against the campus
/// web (Section 5). `d1.title` is selected in addition to the paper's
/// Section-2 listing because the Figure 8 screenshot displays it.
pub const CAMPUS_QUERY: &str = r#"
    select d0.url, d1.url, d1.title, r.text
    from document d0 such that "http://www.csa.iisc.ernet.in" L d0,
    where d0.title contains "lab"
         document d1 such that d0 G·(L*1) d1,
         relinfon r such that r.delimiter = "hr",
    where r.text contains "convener"
"#;

/// The expected Figure 8 result rows (d1.url, d1.title, convener fragment),
/// used by tests and printed by the `fig7` harness.
pub const CAMPUS_EXPECTED: [(&str, &str, &str); 3] = [
    (
        "http://dsl.serc.iisc.ernet.in/people",
        "Database Systems Lab People",
        "Jayant Haritsa",
    ),
    (
        "http://www-compiler.csa.iisc.ernet.in/people",
        "Students of the Compiler Lab at IISc",
        "Y.N. Srikant",
    ),
    (
        "http://www2.csa.iisc.ernet.in/~gang/lab",
        "HOMEPAGE: SYSTEM SOFTWARE LAB",
        "Prof. D. K.",
    ),
];

/// A reconstruction of the IISc campus fragment the paper's Section 5
/// sample execution traversed: the CSA department homepage, its
/// Laboratories page, three lab sites (two with the convener one local
/// link deep, one with the convener on the lab homepage), and assorted
/// decoy pages that exercise dead ends.
pub fn campus() -> HostedWeb {
    let mut web = HostedWeb::new();

    // CSA department homepage: local links to Labs, People, Research.
    web.insert_page(
        "http://www.csa.iisc.ernet.in/",
        PageBuilder::new("Computer Science and Automation")
            .heading("CSA Department")
            .para("Welcome to the Department of Computer Science and Automation.")
            .link("/Labs", "Laboratories")
            .link("/People", "People")
            .link("/Research", "Research"),
    );
    // The Labs page: title contains "lab"; global links to the lab sites.
    web.insert_page(
        "http://www.csa.iisc.ernet.in/Labs",
        PageBuilder::new("Laboratories of the CSA Department")
            .heading("Laboratories")
            .link("http://dsl.serc.iisc.ernet.in/", "Database Systems Lab")
            .link("http://www-compiler.csa.iisc.ernet.in/", "Compiler Lab")
            .link(
                "http://www2.csa.iisc.ernet.in/~gang/lab",
                "System Software Lab",
            ),
    );
    // Decoy department pages (titles without "lab" → q1 dead ends).
    web.insert_page(
        "http://www.csa.iisc.ernet.in/People",
        PageBuilder::new("CSA Faculty and Students").para("Directory of people."),
    );
    web.insert_page(
        "http://www.csa.iisc.ernet.in/Research",
        PageBuilder::new("CSA Research Areas").para("Databases, compilers, theory."),
    );

    // Database Systems Lab: convener one local link away, ended by <hr>.
    web.insert_page(
        "http://dsl.serc.iisc.ernet.in/",
        PageBuilder::new("Database Systems Lab")
            .heading("DSL")
            .para("The Database Systems Lab at SERC.")
            .link("/people", "People")
            .link("/projects", "Projects")
            .link("http://www.csa.iisc.ernet.in/", "CSA Department"),
    );
    web.insert_page(
        "http://dsl.serc.iisc.ernet.in/people",
        PageBuilder::new("Database Systems Lab People")
            .text("CONVENER Jayant Haritsa")
            .hr()
            .text("Students: N. Gupta, M. Ramanath")
            .hr(),
    );
    web.insert_page(
        "http://dsl.serc.iisc.ernet.in/projects",
        PageBuilder::new("DSL Projects")
            .para("DIASPORA, WEBDIS and friends.")
            .link(
                "http://www-compiler.csa.iisc.ernet.in/",
                "Compiler Lab collaboration",
            ),
    );

    // Compiler Lab: convener also one local link away.
    web.insert_page(
        "http://www-compiler.csa.iisc.ernet.in/",
        PageBuilder::new("Compiler Laboratory")
            .para("Compiler research at IISc.")
            .link("/people", "Members"),
    );
    web.insert_page(
        "http://www-compiler.csa.iisc.ernet.in/people",
        PageBuilder::new("Students of the Compiler Lab at IISc")
            .text("Convener Prof. Y.N. Srikant")
            .hr()
            .text("And many students")
            .hr(),
    );

    // System Software Lab: convener directly on the lab homepage
    // (zero local links — exercises the `L*1` lower bound).
    web.insert_page(
        "http://www2.csa.iisc.ernet.in/~gang/lab",
        PageBuilder::new("HOMEPAGE: SYSTEM SOFTWARE LAB")
            .heading("System Software Lab")
            .text("Convener : Prof. D. K.")
            .hr()
            .link("/~gang/lab/misc", "Misc"),
    );
    web.insert_page(
        "http://www2.csa.iisc.ernet.in/~gang/lab/misc",
        PageBuilder::new("SSL Miscellany").para("Nothing relevant here."),
    );

    web
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::LinkType;

    #[test]
    fn figure1_topology() {
        let web = figure1();
        assert_eq!(web.len(), 8);
        let g = web.graph();
        // All links are global: each node on its own site.
        assert!(g.links().all(|l| l.ltype == LinkType::Global));
        // 1 reaches everything.
        let reach = g.reachable(&fig_node(1), &[LinkType::Global]);
        assert_eq!(reach.len(), 8);
        // q1 needle on 4 and 5, not on 7.
        for (i, has_hub) in [(4, true), (5, true), (7, false)] {
            let doc = webdis_html::parse_html(web.get(&fig_node(i)).unwrap());
            assert_eq!(doc.title().contains("hub"), has_hub, "node {i}");
        }
        // q2 needle on 4, 6, 8 — not on 5 or 7.
        for (i, has_answer) in [(4, true), (6, true), (8, true), (5, false), (7, false)] {
            let doc = webdis_html::parse_html(web.get(&fig_node(i)).unwrap());
            assert_eq!(doc.text().contains("answer"), has_answer, "node {i}");
        }
    }

    #[test]
    fn figure5_has_five_paths_into_node4() {
        let web = figure5();
        let g = web.graph();
        let four = fig_node(4);
        let inbound = g.links().filter(|l| l.href.same_document(&four)).count();
        assert_eq!(inbound, 5, "five distinct arrivals a–e");
    }

    #[test]
    fn campus_structure_matches_section5() {
        let web = campus();
        let g = web.graph();
        let labs = Url::parse("http://www.csa.iisc.ernet.in/Labs").unwrap();
        // Labs page is one local link from the homepage.
        let home = Url::parse("http://www.csa.iisc.ernet.in/").unwrap();
        assert!(g
            .links_of_type(&home, LinkType::Local)
            .any(|l| l.href.same_document(&labs)));
        // Three global links to lab homepages.
        assert_eq!(g.links_of_type(&labs, LinkType::Global).count(), 3);
        // Expected convener text present.
        for (url, title, convener) in CAMPUS_EXPECTED {
            let doc = webdis_html::parse_html(web.get(&Url::parse(url).unwrap()).expect(url));
            assert_eq!(doc.title(), title);
            let hr_text: Vec<_> = doc
                .relinfons()
                .filter(|r| r.delimiter == "hr")
                .map(|r| r.text)
                .collect();
            assert!(
                hr_text.iter().any(|t| t.contains(convener)),
                "{url}: no hr rel-infon containing {convener:?} in {hr_text:?}"
            );
        }
        assert!(web.graph().floating_links().is_empty());
    }
}
