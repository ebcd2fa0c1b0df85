//! The server under test and the benchmark's wire clients.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fts_query::Engine;
use fts_server::{QueryServer, Request, Response, ServerConfig};

/// A `QueryServer::serve` accept loop on a loopback port, in-process.
pub struct Running {
    pub server: Arc<QueryServer>,
    pub addr: SocketAddr,
    listener: TcpListener,
    thread: JoinHandle<io::Result<()>>,
}

/// Bind a loopback port and serve `engine` on it with the default config
/// (the one `fts-server` starts with).
pub fn start(engine: Arc<Engine>) -> io::Result<Running> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = listener.try_clone()?;
    let server = Arc::new(QueryServer::new(engine, ServerConfig::default()));
    let serving = Arc::clone(&server);
    let thread = std::thread::spawn(move || serving.serve(listener));
    Ok(Running {
        server,
        addr,
        listener: handle,
        thread,
    })
}

impl Running {
    /// Stop the accept loop and wait for it. The listener turns
    /// non-blocking and one connection wakes the blocked `accept`, so the
    /// next `accept` fails and `serve` returns. Connection threads end on
    /// their own once their clients have closed.
    pub fn stop(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let wake = TcpStream::connect(self.addr)?;
        let served = self
            .thread
            .join()
            .map_err(|_| io::Error::other("the serve thread panicked"))?;
        drop(wake);
        match served {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }
}

/// One client connection speaking the frame protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server must not hang the benchmark past its own limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request frame.
    pub fn send(&mut self, statement: &str) -> io::Result<()> {
        Request {
            statement: statement.to_string(),
        }
        .write(&mut self.writer)
    }

    /// Read one response frame.
    pub fn receive(&mut self) -> io::Result<Response> {
        Response::read(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    pub fn round_trip(&mut self, statement: &str) -> io::Result<Response> {
        self.send(statement)?;
        self.receive()
    }
}
