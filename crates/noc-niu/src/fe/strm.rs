//! Proprietary streaming (STRM) initiator front end.
//!
//! Demonstrates the paper's §2 recipe on a socket-specific feature: the
//! STRM *urgency* sideband needs information exchanged between NIUs →
//! it rides the packet `pressure` field; no transport or switch change.

use super::{deliver_one, FrontEnd, Initiator};
use noc_protocols::strm::{StrmPort, StrmReadData, StrmSocket};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts a [`StrmMaster`](noc_protocols::strm::StrmMaster); fully ordered
/// reads → pair with [`noc_transaction::OrderingModel::FullyOrdered`].
pub type StrmInitiator = Initiator<StrmSocket>;

impl FrontEnd for StrmSocket {
    type Pending = VecDeque<StrmReadData>;

    fn deliver(pending: &mut Self::Pending, port: &mut StrmPort) {
        deliver_one(pending, &mut port.rdata);
    }

    fn pull_request(port: &mut StrmPort) -> Option<TransactionRequest> {
        if let Some(w) = port.tx.take() {
            return Some(
                TransactionRequest::builder(Opcode::WritePosted)
                    .address(w.addr)
                    .burst(w.burst)
                    .stream(StreamId::ZERO)
                    .pressure(w.urgency)
                    .data(w.data)
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        let r = port.rreq.take()?;
        Some(
            TransactionRequest::builder(Opcode::Read)
                .address(r.addr)
                .burst(r.burst)
                .stream(StreamId::ZERO)
                .pressure(r.urgency)
                .build()
                .expect("agent produces valid requests"),
        )
    }

    fn push_response(
        pending: &mut Self::Pending,
        _stream: StreamId,
        opcode: Opcode,
        resp: TransactionResponse,
    ) {
        debug_assert!(opcode.is_read(), "STRM only expects read responses");
        pending.push_back(StrmReadData {
            data: resp.data().to_vec(),
            status: resp.status(),
        });
    }

    fn holds_traffic(pending: &Self::Pending, port: &StrmPort) -> bool {
        !pending.is_empty() || port.tx.valid() || port.rreq.valid()
    }

    fn responding(port: &StrmPort) -> bool {
        port.rdata.valid()
    }
}
