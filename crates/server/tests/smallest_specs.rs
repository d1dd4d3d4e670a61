//! The smallest trace budgets the service accepts.
//!
//! A TVLA spec below [`MIN_TVLA_TRACES`] would finish with one of its
//! populations under two traces, where the Welch statistic has no
//! verdict. Validation refuses it with a typed spec error, so no worker
//! ever holds such a job. The smallest budget of every analysis that
//! *is* accepted then runs on the same server to a terminal event.

use std::sync::mpsc::Receiver;
use std::time::Duration;

use sca_server::{parse_request, CampaignServer, Event, Request, ServerConfig, ServerError};
use sca_target::MIN_TVLA_TRACES;

fn submit_line(server: &CampaignServer, line: &str) -> Result<Receiver<Event>, ServerError> {
    let Request::Submit { spec, weight } = parse_request(line).expect("line parses") else {
        panic!("not a submit line: {line}");
    };
    server.submit(&spec, weight).map(|(_, events, _)| events)
}

/// Follows a job's stream to `Done` and returns its terminal event.
fn terminal_event(events: &Receiver<Event>) -> Event {
    let mut terminal = None;
    loop {
        match events
            .recv_timeout(Duration::from_secs(300))
            .expect("the job reaches Done")
        {
            Event::Done { .. } => return terminal.expect("a Final or Failed event precedes Done"),
            event @ (Event::Final { .. } | Event::Failed { .. }) => terminal = Some(event),
            Event::Accepted { .. } | Event::Progress { .. } => {}
        }
    }
}

#[test]
fn undersized_tvla_is_refused_and_the_smallest_budgets_finish() {
    let root = std::env::temp_dir().join(format!("sca-server-smallest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = CampaignServer::start(ServerConfig::new(&root));

    let refused = submit_line(
        &server,
        "submit tenant=t target=aes128 analysis=tvla traces=3",
    );
    assert!(
        matches!(refused, Err(ServerError::Spec(_))),
        "a 3-trace TVLA spec must be refused as a bad spec"
    );

    for (analysis, traces) in [("hw", 1), ("hd", 1), ("tvla", MIN_TVLA_TRACES)] {
        let line = format!(
            "submit tenant=t target=aes128 analysis={analysis} traces={traces} executions=1"
        );
        let events = submit_line(&server, &line).expect("the smallest budget is accepted");
        match terminal_event(&events) {
            Event::Final { line, .. } => assert!(line.starts_with("[aes128] "), "{line}"),
            Event::Failed { message, .. } => assert!(!message.is_empty()),
            other => unreachable!("{other:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    let _ = std::fs::remove_dir_all(&root);
}
